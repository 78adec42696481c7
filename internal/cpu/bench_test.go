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

// BenchmarkCoreClone times one Clone of dirtyCore's Gold 6226 core: a
// core mid-run with every kind of state the simulator keeps and a queue
// of tasks.
func BenchmarkCoreClone(b *testing.B) {
	c := dirtyCore(b, Gold6226())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		cloneSink = c.Clone()
	}
}

// cloneSink keeps BenchmarkCoreClone's copies live.
var cloneSink *Core

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

// BenchmarkCoreRunShortLoops times one window of Figure 9's MITE+DSB
// path on a warm Gold 6226 core: RunUntilIdle on a fresh 60-iteration
// loop of the nine-block chain, which thrashes its DSB set. The
// steady-loop skip covers most of each window.
func BenchmarkCoreRunShortLoops(b *testing.B) {
	c := NewCore(Gold6226(), 1)
	flat := isa.Flatten(isa.MixChain(3, 9, true))
	c.Enqueue(0, isa.NewFlatLoopStream(flat, 20), nil)
	c.RunUntilIdle(10_000_000)
	start := c.Cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.Enqueue(0, isa.NewFlatLoopStream(flat, 60), nil)
		c.RunUntilIdle(10_000_000)
	}
	b.ReportMetric(float64(c.Cycle()-start)/float64(b.N), "sim-cycles/op")
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

// fingerprintAttacker is Figure 12's receiver: a loop of 100 two-byte
// nops, above the LSD's capacity and inside the DSB.
func fingerprintAttacker() []*isa.Block {
	return chained(isa.NopBlockLen(0x0070_0000, 100, 2))
}

// fingerprintVictim is a victim phase of Figure 12: a chain of mix
// blocks over the given number of 32-byte windows.
func fingerprintVictim(windows int) []*isa.Block {
	blocks := make([]*isa.Block, windows)
	for j := range blocks {
		blocks[j] = isa.MixBlock(0x0100_0000 + uint64(j)*isa.WindowBytes)
	}
	return chained(blocks...)
}

// BenchmarkCoreRunCyclesMT times one fingerprint sample of Figure 12:
// RunCycles(30_000) with the attacker's nop loop on thread 0 and a
// 300-window victim on thread 1. The two loops' joint state does not
// recur within a sample, so every cycle is stepped: the benchmark fails
// if the steady-loop skip fires. Beside sim-cycles/op it reports the
// micro-ops both threads retired per op.
func BenchmarkCoreRunCyclesMT(b *testing.B) {
	skips := loopSkips.Load()
	benchRunCyclesMT(b, 300)
	if loopSkips.Load() != skips {
		b.Fatal("the steady-loop skip fired: this benchmark prices stepped two-thread cycles")
	}
}

// BenchmarkCoreRunCyclesMTSteady is BenchmarkCoreRunCyclesMT beside a
// 60-window victim, a phase whose joint state with the attacker recurs
// within a sample, so the two-thread steady-loop skip covers most of
// its cycles.
func BenchmarkCoreRunCyclesMTSteady(b *testing.B) {
	benchRunCyclesMT(b, 60)
}

// benchRunCyclesMT times RunCycles(30_000), one fingerprint sample,
// with the attacker on thread 0 and a victim of the given number of
// windows on thread 1.
func benchRunCyclesMT(b *testing.B, windows int) {
	const sample = 30_000
	c := NewCore(Gold6226(), 1)
	// An iteration takes at least a cycle, so neither loop drains.
	c.Enqueue(0, isa.NewLoopStream(fingerprintAttacker(), b.N*sample+1), nil)
	c.Enqueue(1, isa.NewLoopStream(fingerprintVictim(windows), b.N*sample+1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.RunCycles(sample)
	}
	b.ReportMetric(float64(c.Cycle())/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(c.Retired(0)+c.Retired(1))/float64(b.N), "retired-uops/op")
}
