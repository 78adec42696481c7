package attack

import (
	"testing"

	"repro/internal/cpu"
)

// The SendBit benchmarks time the per-bit inner loop of each channel
// family — the code every sweep, table, and advisory bottoms out in.
// They alternate bit values so both encodings (and the MT channel's
// transition noise paths) stay on the measured path. allocs/op here is
// gated by cmd/benchdiff: a regression means something in the per-bit
// path started allocating again. sim-cycles/op is the simulated work per
// bit, which separates "did more work" from "did the same work slower".

func benchBits(b *testing.B, a interface {
	SendBit(m byte) float64
	Cycles() uint64
}) {
	b.Helper()
	b.ReportAllocs()
	start := a.Cycles()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += a.SendBit('0' + byte(i&1))
	}
	b.ReportMetric(float64(a.Cycles()-start)/float64(b.N), "sim-cycles/op")
	if sink < 0 {
		b.Fatal("negative measurement sum")
	}
}

func BenchmarkSendBit_NonMTEviction(b *testing.B) {
	a := NewNonMT(DefaultNonMT(cpu.Gold6226(), Eviction, false))
	benchBits(b, a)
}

func BenchmarkSendBit_NonMTStealthy(b *testing.B) {
	a := NewNonMT(DefaultNonMT(cpu.Gold6226(), Eviction, true))
	benchBits(b, a)
}

func BenchmarkSendBit_NonMTMisalign(b *testing.B) {
	a := NewNonMT(DefaultNonMT(cpu.Gold6226(), Misalignment, false))
	benchBits(b, a)
}

func BenchmarkSendBit_MTEviction(b *testing.B) {
	a := NewMT(DefaultMT(cpu.Gold6226(), Eviction))
	benchBits(b, a)
}

func BenchmarkSendBit_SlowSwitch(b *testing.B) {
	a := NewSlowSwitch(DefaultSlowSwitch(cpu.Gold6226()))
	benchBits(b, a)
}

func BenchmarkSendBit_Power(b *testing.B) {
	cfg := DefaultPower(cpu.Gold6226(), Eviction)
	cfg.Iters = 200 // paper-default 120k would swamp the harness
	a := NewPower(cfg)
	benchBits(b, a)
}
