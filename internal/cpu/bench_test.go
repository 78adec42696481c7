package cpu

import (
	"testing"

	"repro/internal/isa"
)

// benchLoop is a representative attack working set: six aligned mix
// blocks chained into one loop, the shape every receiver pass executes.
func benchLoop() []*isa.Block {
	blocks := make([]*isa.Block, 6)
	for w := 0; w < 6; w++ {
		blocks[w] = isa.MixBlock(isa.AddrForSet(20, w))
	}
	isa.ChainLoop(blocks)
	return blocks
}

// BenchmarkCoreStep times the cycle stepper itself with a thread
// continuously fetching — the innermost loop of the whole simulator.
// ns/op here is per simulated cycle. The loop is enqueued outside the
// timer, so an op is one Step, which allocates nothing
// (TestCycleAllocatesNothing).
func BenchmarkCoreStep(b *testing.B) {
	c := NewCore(Gold6226(), 1)
	blocks := benchLoop()
	enqueue := func() { c.Enqueue(0, isa.NewLoopStream(blocks, 1_000_000), nil) }
	enqueue()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Idle() {
			b.StopTimer()
			enqueue()
			b.StartTimer()
		}
		c.Step()
	}
}

// BenchmarkCoreRunTimed times one full timed attack step (protocol
// overhead, stream execution, noisy measurement) at the non-MT channel's
// default p=10 scale.
func BenchmarkCoreRunTimed(b *testing.B) {
	c := NewCore(Gold6226(), 1)
	blocks := benchLoop()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += c.RunTimed(0, isa.NewLoopStream(blocks, 10))
	}
	b.ReportMetric(float64(c.Cycle())/float64(b.N), "sim-cycles/op")
	if sink < 0 {
		b.Fatal("negative measurement sum")
	}
}

// BenchmarkCoreRunCyclesIdle times RunCycles over one timer handshake
// of an idle core, the protocol gap around every non-MT attack step.
func BenchmarkCoreRunCyclesIdle(b *testing.B) {
	c := NewCore(Gold6226(), 1)
	gap := uint64(c.Model.ProtocolOverheadCycles)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunCycles(gap)
	}
	b.ReportMetric(float64(c.Cycle())/float64(b.N), "sim-cycles/op")
}
