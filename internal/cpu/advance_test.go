package cpu

import (
	"testing"

	"repro/internal/isa"
)

// advanceLimits are the limits TestAdvanceMatchesStep hands Advance in
// turn, as offsets from the current cycle: none, limits that cut a
// 140-cycle pause stall or a 30-cycle L1I miss short, and a limit at the
// current cycle, which must step.
var advanceLimits = []uint64{^uint64(0), 1, 3, 50, 0, 7, 1000, 2}

// advanceRun tallies what one Advance-driven run covered.
type advanceRun struct {
	skips     int  // calls that skipped more than one cycle
	cut       int  // skips that ended at their limit with stall left
	rapl      bool // a skip crossed a RAPL publication
	revert    bool // the DSB partition reverted between two stall cycles
	mispreds  uint64
	l1iMisses uint64
	lcpStall  float64
}

// TestAdvanceMatchesStep drives programs made of a lone thread's stalls
// through Advance on one core and through Step on its clone, and after
// every Advance requires the two cores to hold identical state, down to
// float bits. The model's static power is inexact in binary, so a skip
// that added its energy other than one cycle at a time would show, and
// RAPL publishes every 997 cycles, so skips cross publications at many
// phases.
func TestAdvanceMatchesStep(t *testing.T) {
	m := Gold6226()
	m.PW.StaticWatts = 45.3
	m.PW.RAPLIntervalCycles = 997
	pause := chained(isa.PauseBlock(isa.AddrForSet(28, 3), 4))
	var walk []*isa.Block // 1-byte nop windows, one per 64-byte line
	for i := range 8 {
		walk = append(walk, isa.NopBlockLen(isa.AddrForSet(2*i, 5), 24, 1))
	}
	isa.ChainLoop(walk)
	// Three short loops in a row: the first back-edge of each is cold and
	// mispredicts, and so does each loop's exit, with the next loop's
	// first instruction already loaded.
	var exits []isa.Inst
	for i := range 3 {
		exits = append(exits, isa.Drain(isa.NewLoopStream(isa.MixChain(5+i, 3, true), 4))...)
	}
	cases := []struct {
		name  string
		setup func(c *Core)
		check func(r advanceRun) bool
	}{
		{"pause pad", func(c *Core) {
			c.Enqueue(0, isa.NewLoopStream(pause, 8), nil)
		}, func(advanceRun) bool { return true }},
		{"1-byte nop walk", func(c *Core) {
			c.Enqueue(0, isa.NewLoopStream(walk, 2), nil)
		}, func(r advanceRun) bool { return r.l1iMisses >= 8 }},
		{"mispredicting loop exits", func(c *Core) {
			c.Enqueue(0, isa.NewSeqStream(exits), nil)
		}, func(r advanceRun) bool { return r.mispreds >= 3 }},
		{"LCP chain", func(c *Core) {
			c.Enqueue(0, isa.NewLoopStream(chained(isa.LCPBlock(isa.AddrForSet(6, 4), 14, true)), 6), nil)
		}, func(r advanceRun) bool { return r.lcpStall > 0 }},
		{"sibling finishes first", func(c *Core) {
			c.Enqueue(1, isa.NewLoopStream(isa.MixChain(20, 6, true), 5), nil)
			c.Enqueue(0, isa.NewLoopStream(pause, 6), nil)
		}, func(r advanceRun) bool { return r.revert }},
		{"stall across a RAPL publication", func(c *Core) {
			c.Enqueue(0, isa.NewLoopStream(pause, 8), nil)
		}, func(r advanceRun) bool { return r.rapl }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skipped := NewCore(m, 1)
			tc.setup(skipped)
			stepped := skipped.Clone()
			var r advanceRun
			interval := m.PW.RAPLIntervalCycles
			for i := 0; !skipped.Idle(); i++ {
				before := skipped.Cycle()
				partitioned := skipped.FE.DSB.Partitioned()
				limit := advanceLimits[i%len(advanceLimits)]
				if limit != ^uint64(0) {
					limit += before
				}
				skipped.Advance(limit)
				if after := skipped.Cycle(); after > before+1 {
					r.skips++
					if after == limit && skipped.FE.StallSpan(0) > 0 {
						r.cut++
					}
					if before/interval != after/interval {
						r.rapl = true
					}
				}
				if partitioned && !skipped.FE.DSB.Partitioned() && skipped.FE.StallSpan(0) > 0 {
					r.revert = true
				}
				for stepped.Cycle() < skipped.Cycle() {
					stepped.Step()
				}
				requireSameCore(t, skipped, stepped)
			}
			ctr := skipped.Counters(0)
			r.mispreds, r.l1iMisses, r.lcpStall = ctr.Mispredicts, ctr.L1IMisses, ctr.LCPStallCycles
			if r.skips == 0 || r.cut == 0 || !tc.check(r) {
				t.Fatalf("the run did not cover its case: %+v", r)
			}
		})
	}
}

// TestCycleAllocatesNothing pins that simulating a cycle allocates
// nothing: Step on a busy loop and Advance through pause stalls.
func TestCycleAllocatesNothing(t *testing.T) {
	busy := NewCore(Gold6226(), 1)
	busy.Enqueue(0, isa.NewLoopStream(benchLoop(), 1_000_000), nil)
	busy.RunCycles(1000)
	if allocs := testing.AllocsPerRun(1000, busy.Step); allocs != 0 {
		t.Fatalf("Step on a busy loop allocates %.0f times", allocs)
	}
	stalled := NewCore(Gold6226(), 1)
	stalled.Enqueue(0, isa.NewLoopStream(chained(isa.PauseBlock(isa.AddrForSet(28, 3), 4)), 1000), nil)
	stalled.Step()
	start := stalled.Cycle()
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, func() { stalled.Advance(^uint64(0)) }); allocs != 0 {
		t.Fatalf("Advance through pause stalls allocates %.0f times", allocs)
	}
	if busy.Idle() || stalled.Idle() || stalled.Cycle()-start <= runs+1 {
		t.Fatalf("the cores drained or Advance skipped nothing (%d cycles in %d calls)", stalled.Cycle()-start, runs+1)
	}
}
