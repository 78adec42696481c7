package cpu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestRunCyclesIdleSkipMatchesStep pins that RunCycles' bulk idle skip
// is invisible: RunCycles(n) on a core and n calls of Step on its clone
// leave the same observable state, and a follow-up timed step and MT pass
// on both read the same bits, which catches hidden state such as the
// backend's retire priority.
func TestRunCyclesIdleSkipMatchesStep(t *testing.T) {
	blocks := isa.MixChain(3, 6, true)
	staticPartition := Gold6226()
	staticPartition.StaticDSBPartition = true
	cases := []struct {
		name  string
		core  func() *Core
		n     uint64
		check func(t *testing.T, c *Core, n uint64)
	}{
		{name: "fresh core", n: 1000, core: func() *Core { return NewCore(Gold6226(), 1) },
			check: func(t *testing.T, c *Core, n uint64) {
				if got := c.quietSpan(n, true); got != n {
					t.Fatalf("idle span %d, want the whole %d", got, n)
				}
			}},
		{name: "after MT pass, partition reverts in span", n: 2000, core: func() *Core {
			c := NewCore(Gold6226(), 2)
			c.Enqueue(0, isa.NewLoopStream(blocks, 20), nil)
			c.Enqueue(1, isa.NewLoopStream(isa.MixChain(9, 9, true), 20), nil)
			c.RunUntilIdle(1_000_000)
			return c
		}, check: func(t *testing.T, c *Core, n uint64) {
			if !c.FE.DSB.Partitioned() {
				t.Fatal("DSB not partitioned after the MT pass")
			}
			revert := c.lastBoth + c.Model.PartitionHysteresis + 1
			if got := c.quietSpan(n, true); got == 0 || c.cycle+got != revert-1 {
				t.Fatalf("idle span %d from cycle %d, want it to end just before the revert at %d", got, c.cycle, revert)
			}
		}},
		{name: "span crosses a RAPL publication", n: 300_001, core: func() *Core {
			// A static power inexact in binary makes the per-cycle
			// rounding of the energy sum visible.
			m := Gold6226()
			m.PW.StaticWatts = 45.3
			c := NewCore(m, 3)
			c.RunTimed(0, isa.NewLoopStream(blocks, 10))
			return c
		}, check: func(t *testing.T, c *Core, n uint64) {
			if n <= c.PM.P.RAPLIntervalCycles {
				t.Fatalf("span %d does not cross a %d-cycle RAPL interval", n, c.PM.P.RAPLIntervalCycles)
			}
		}},
		{name: "odd span", n: 12_345, core: func() *Core {
			c := NewCore(Gold6226(), 4)
			c.RunTimed(0, isa.NewLoopStream(blocks, 3))
			return c
		}},
		{name: "statically partitioned DSB", n: 1001, core: func() *Core {
			c := NewCore(staticPartition, 5)
			c.RunTimed(1, isa.NewLoopStream(blocks, 3))
			return c
		}},
		{name: "aborted thread with micro-ops in its IDQ", n: 1000, core: func() *Core {
			c := NewCore(Gold6226(), 6)
			c.Enqueue(1, isa.NewLoopStream(blocks, 1000), nil)
			// Warm the loop into the DSB, which delivers faster than
			// the backend retires, so the IDQ backs up.
			for i := 0; i < 10_000 && c.FE.IDQLen(1) < 8; i++ {
				c.Step()
			}
			c.AbortThread(1)
			return c
		}, check: func(t *testing.T, c *Core, n uint64) {
			if c.FE.IDQLen(1) == 0 {
				t.Fatal("abort left the IDQ empty")
			}
			if got := c.quietSpan(n, true); got != 0 {
				t.Fatalf("idle span %d with micro-ops still to retire", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skipped := tc.core()
			if tc.check != nil {
				tc.check(t, skipped, tc.n)
			}
			stepped := skipped.Clone()
			skipped.RunCycles(tc.n)
			for range tc.n {
				stepped.Step()
			}
			requireSameState(t, skipped, stepped)
			if a, b := followUp(skipped), followUp(stepped); a != b {
				t.Fatalf("follow-up diverged:\nskipped %v\nstepped %v", a, b)
			}
			requireSameState(t, skipped, stepped)
		})
	}
}

// requireSameState compares everything a caller of Core can observe.
func requireSameState(t *testing.T, a, b *Core) {
	t.Helper()
	if a.Cycle() != b.Cycle() {
		t.Fatalf("cycle %d vs %d", a.Cycle(), b.Cycle())
	}
	for th := 0; th < 2; th++ {
		if a.Counters(th) != b.Counters(th) {
			t.Fatalf("thread %d counters\n%+v\n%+v", th, a.Counters(th), b.Counters(th))
		}
	}
	// Retired counts, port conflicts and the retire priority.
	if a.BE != b.BE {
		t.Fatalf("backend %+v vs %+v", a.BE, b.BE)
	}
	if ea, eb := math.Float64bits(a.PM.TrueEnergy()), math.Float64bits(b.PM.TrueEnergy()); ea != eb {
		t.Fatalf("true energy %v vs %v", a.PM.TrueEnergy(), b.PM.TrueEnergy())
	}
	if ra, rb := a.PM.RAPLRead(), b.PM.RAPLRead(); math.Float64bits(ra) != math.Float64bits(rb) {
		t.Fatalf("RAPL reading %v vs %v", ra, rb)
	}
	if a.FE.DSB.Partitioned() != b.FE.DSB.Partitioned() || a.FE.DSB.TotalLines() != b.FE.DSB.TotalLines() {
		t.Fatalf("DSB partitioned %v/%v, lines %d/%d", a.FE.DSB.Partitioned(), b.FE.DSB.Partitioned(),
			a.FE.DSB.TotalLines(), b.FE.DSB.TotalLines())
	}
}

// followUp runs a timed single-thread step, then an MT pass whose two
// threads contend for the load ports, so the retire priority decides
// who retires first, and returns what it read.
func followUp(c *Core) [5]uint64 {
	timed := c.RunTimed(0, isa.NewLoopStream(isa.MixChain(3, 6, true), 10))
	c.Enqueue(1, isa.NewLoopStream(loadLoop(0x700000, 0x900000), 40), nil)
	c.MeasureEnqueue(0, isa.NewLoopStream(loadLoop(0x600000, 0x800000), 20))
	c.RunUntilIdle(10_000_000)
	return [5]uint64{math.Float64bits(timed), math.Float64bits(c.Measured(0)), c.Cycle(),
		math.Float64bits(c.PM.TrueEnergy()), c.BE.PortConflicts}
}

// loadLoop is a one-block loop of five loads from consecutive lines.
func loadLoop(code, data uint64) []*isa.Block {
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = data + uint64(i)*64
	}
	b := []*isa.Block{isa.LoadBlock(code, addrs)}
	isa.ChainLoop(b)
	return b
}

// TestMeasureEnqueueChecksThread pins that MeasureEnqueue rejects a
// thread the core does not have, with the same message as Enqueue.
func TestMeasureEnqueueChecksThread(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      Model
		thread int
		want   string
	}{
		{"out of range", Gold6226(), 2, "invalid hardware thread 2"},
		{"hyper-threading disabled", XeonE2288G(), 1, "hyper-threading disabled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCore(tc.m, 1)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			c.MeasureEnqueue(tc.thread, isa.NewLoopStream(isa.MixChain(0, 1, true), 1))
		})
	}
}
