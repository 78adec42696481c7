package cpu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/clonecheck"
	"repro/internal/isa"
)

// steadyLoop is one loop shape the steady-loop skip must reproduce.
type steadyLoop struct {
	name   string
	blocks []*isa.Block
	iters  int
	// recurs is false for loops whose state never repeats bit for bit on
	// a model, so the skip cannot fire there.
	recurs func(m Model) bool
}

func chained(blocks ...*isa.Block) []*isa.Block {
	isa.ChainLoop(blocks)
	return blocks
}

// sgxSender is the SGX MT eviction sender of the covert channel: five
// mix blocks in the eviction set followed by a 250-nop pad.
func sgxSender() []*isa.Block {
	const d = 4
	var blocks []*isa.Block
	for i := 0; i < isa.DSBWays+1-d; i++ {
		blocks = append(blocks, isa.MixBlock(isa.AddrForSet(20, d+i)))
	}
	return chained(append(blocks, isa.NopBlockLen(isa.AddrForSet(28, 24+d), 250, 2))...)
}

// dyadicLCP is Gold 6226 with LCP and switch stalls charged in
// binary-exact amounts, so that its LCP loops recur. The LCP counter
// still sums the non-dyadic 2.56, which makes its replay order count.
func dyadicLCP() Model {
	m := Gold6226()
	m.Name = "Gold 6226 dyadic LCP"
	m.FE.LCPOverlapCharge = 0
	m.FE.SwitchOverlapCharge = 0.125
	return m
}

func steadyLoops() []steadyLoop {
	always := func(Model) bool { return true }
	// On the real models an LCP loop decodes through MITE, whose
	// non-dyadic stall charges (0.12 × 2.56) keep the stall debt
	// drifting: its state never recurs.
	dyadic := func(m Model) bool { return m.Name == dyadicLCP().Name }
	return []steadyLoop{
		{"dsb thrash 9 blocks", isa.MixChain(3, 9, true), 3000, always},
		{"lsd lock 8 blocks", isa.MixChain(3, 8, true), 5000, always},
		{"one block", isa.MixChain(4, 1, true), 20000, always},
		// A lone jump to itself: one-cycle iterations, so a snapshot can
		// come while an aborted sibling's micro-ops still retire.
		{"self jump", chained(isa.NopBlock(isa.AddrForSet(4, 3), 0)), 20000, always},
		{"misaligned 8 blocks", isa.MixChain(5, 8, false), 3000, always},
		{"aligned+misaligned 6+3", isa.MixChainMixed(7, 6, 3), 3000, always},
		{"lcp mixed", chained(isa.LCPBlock(isa.AddrForSet(6, 4), 14, true)), 3000, dyadic},
		{"lcp ordered", chained(isa.LCPBlock(isa.AddrForSet(9, 2), 14, false)), 3000, dyadic},
		{"sgx sender", sgxSender(), 1000, always},
		// Five loads contend for two load ports every iteration.
		{"load ports", loadLoop(isa.AddrForSet(11, 1), 0x20000), 3000, always},
		// Nine loads cycle through one 8-way L1D set, so the set's ways
		// hold their tags again only every eighth iteration.
		{"l1d thrash", chained(isa.LoadBlock(isa.AddrForSet(12, 1), l1dThrash())), 3000, always},
		{"pause", chained(isa.PauseBlock(isa.AddrForSet(28, 3), 2)), 200, always},
	}
}

// l1dThrash returns nine data addresses in one L1D set.
func l1dThrash() []uint64 {
	addrs := make([]uint64, 9)
	for i := range addrs {
		addrs[i] = 0x100000 + uint64(i)*4096
	}
	return addrs
}

func steadyModels() []Model {
	return []Model{Gold6226(), XeonE2288G(), XeonE2174G(), Gold6226().WithLSD(false), dyadicLCP()}
}

// requireSameCore fails unless a and b hold identical state, down to
// dead IDQ slots, recency ticks and float bits.
func requireSameCore(t *testing.T, a, b *Core) {
	t.Helper()
	if diff := clonecheck.Diff(a, b); len(diff) != 0 {
		t.Fatalf("skipped and stepped cores differ:\n%s", strings.Join(diff, "\n"))
	}
}

// stepUntilIdle is RunUntilIdle without the skip.
func stepUntilIdle(c *Core) {
	for !c.Idle() {
		c.Step()
	}
}

// runUntilIdle drains c through RunUntilIdle when skip is set and
// through plain Step otherwise.
func runUntilIdle(c *Core, skip bool) {
	if skip {
		c.RunUntilIdle(100_000_000)
	} else {
		stepUntilIdle(c)
	}
}

// TestSteadySkipMatchesStep runs every loop shape on every model through
// the run loops on one core and through plain Step on its clone, and
// requires the two cores to end in identical state: after RunUntilIdle,
// after RunCycles with an odd budget that ends mid-loop, and with a
// second thread that finishes first, so the DSB partition reverts
// mid-run.
func TestSteadySkipMatchesStep(t *testing.T) {
	modes := []struct {
		name string
		ht   bool // needs a second hardware thread
		run  func(c *Core, loop steadyLoop, skip bool)
	}{
		{"RunUntilIdle", false, func(c *Core, loop steadyLoop, skip bool) {
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			runUntilIdle(c, skip)
		}},
		{"RunCycles mid-loop", false, func(c *Core, loop steadyLoop, skip bool) {
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			const n = 40_001
			if skip {
				c.RunCycles(n)
			} else {
				for range n {
					c.Step()
				}
			}
		}},
		{"aborted sibling", true, func(c *Core, loop steadyLoop, skip bool) {
			// Thread 1 leaves micro-ops in its IDQ that retire while
			// thread 0's loop starts: a warm DSB delivers faster than the
			// backend retires, so the IDQ backs up.
			c.Enqueue(1, isa.NewLoopStream(isa.MixChain(21, 6, true), 1000), nil)
			for i := 0; i < 10_000 && c.FE.IDQLen(1) < 8; i++ {
				c.Step()
			}
			if c.FE.IDQLen(1) < 8 {
				panic("thread 1's IDQ did not back up")
			}
			c.AbortThread(1)
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			runUntilIdle(c, skip)
		}},
		{"sibling finishes first", true, func(c *Core, loop steadyLoop, skip bool) {
			c.Enqueue(1, isa.NewLoopStream(isa.MixChain(20, 6, true), 30), nil)
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			runUntilIdle(c, skip)
			if c.FE.DSB.Partitioned() || c.FE.DSB.Stats().Partitions < 2 {
				panic("the DSB partition did not revert")
			}
		}},
	}
	for _, m := range steadyModels() {
		for _, loop := range steadyLoops() {
			for _, mode := range modes {
				if mode.ht && !m.HyperThreading {
					continue
				}
				name := fmt.Sprintf("%s/lsd=%v/%s/%s", m.Name, m.LSDEnabled, loop.name, mode.name)
				t.Run(name, func(t *testing.T) {
					skipped := NewCore(m, 3)
					stepped := skipped.Clone()
					before := loopSkips.Load()
					mode.run(skipped, loop, true)
					mode.run(stepped, loop, false)
					fired := loopSkips.Load() > before
					requireSameCore(t, skipped, stepped)
					if want := loop.recurs(m); fired != want {
						t.Fatalf("skip fired %v, want %v", fired, want)
					}
				})
			}
		}
	}
}

// TestRunUntilIdleGuardMatchesStep pins that the skip never jumps over
// RunUntilIdle's runaway guard: on a loop far too long for the budget,
// RunUntilIdle panics at the cycle and in the state stepping reaches.
func TestRunUntilIdleGuardMatchesStep(t *testing.T) {
	for _, budget := range []uint64{10_000, 77_777, 500_000} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			skipped := NewCore(Gold6226(), 5)
			skipped.Enqueue(0, isa.NewLoopStream(isa.MixChain(3, 8, true), 1_000_000), nil)
			stepped := skipped.Clone()
			before := loopSkips.Load()
			func() {
				defer func() {
					want := fmt.Sprintf("cpu: RunUntilIdle exceeded %d cycles", budget)
					if msg, _ := recover().(string); msg != want {
						t.Fatalf("panic %q, want %q", msg, want)
					}
				}()
				skipped.RunUntilIdle(budget)
			}()
			if loopSkips.Load() == before {
				t.Fatal("skip did not fire")
			}
			for start := stepped.Cycle(); stepped.Cycle()-start <= budget; {
				stepped.Step()
			}
			requireSameCore(t, skipped, stepped)
		})
	}
}

// fuzzLoop chains n blocks in a DSB set into a loop, block i built from
// kinds[i%len(kinds)]: its low two bits pick a mix, LCP, nop or pause
// block, bit 2 misaligns it and the high bits size it.
func fuzzLoop(set, n int, kinds []byte) []*isa.Block {
	blocks := make([]*isa.Block, n)
	for i := range blocks {
		b := kinds[i%len(kinds)]
		addr := isa.AddrForSet(set, i)
		if b&4 != 0 {
			addr = isa.MisalignedAddrForSet(set, i)
		}
		arg := int(b >> 3)
		switch b & 3 {
		case 0:
			blocks[i] = isa.MixBlock(addr)
		case 1:
			blocks[i] = isa.LCPBlock(addr, 1+arg%8, arg&8 != 0)
		case 2:
			blocks[i] = isa.NopBlockLen(addr, 1+arg, 1+arg%2)
		default:
			blocks[i] = isa.PauseBlock(addr, 1)
		}
	}
	isa.ChainLoop(blocks)
	return blocks
}

// FuzzSteadySkip builds a loop from the input — block kinds (mix, LCP,
// nop, pause), DSB set, block count, alignment, iteration count, model,
// thread and run mode — and requires the run loops, or Advance at limits
// the input sets, to leave the core in exactly the state plain stepping
// does.
func FuzzSteadySkip(f *testing.F) {
	f.Add([]byte{0, 0, 200, 3, 7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 120, 5, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	f.Add([]byte{4, 1, 90, 6, 1, 1 | 5<<3})
	f.Add([]byte{3, 0, 60, 28, 2, 2 | 20<<3, 3})
	f.Add([]byte{2, 4, 255, 20, 6, 0, 0, 0, 0, 0, 2 | 29<<3})
	f.Add([]byte{0, 8, 20, 28, 2, 3 | 2<<3, 0, 3 | 17<<3})
	f.Add([]byte{0, 9, 10, 6, 1, 1 | 5<<3, 3 | 30<<3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		models := steadyModels()
		m := models[int(data[0])%len(models)]
		thread := int(data[1] & 1)
		if !m.HyperThreading {
			thread = 0
		}
		iters := 10 + int(data[2])*4
		blocks := fuzzLoop(int(data[3])%isa.DSBSets, 1+int(data[4])%10, data[5:])

		advance := data[1]&8 != 0
		if advance {
			// A static power inexact in binary and frequent RAPL
			// publications, so that a skip's energy added other than
			// one cycle at a time shows.
			m.PW.StaticWatts = 45.3
			m.PW.RAPLIntervalCycles = 997
		}
		skipped := NewCore(m, uint64(data[0]))
		skipped.Enqueue(thread, isa.NewLoopStream(blocks, iters), nil)
		stepped := skipped.Clone()
		switch {
		case advance:
			// Advance at limits read from the block bytes, up to 255
			// cycles ahead, so stalls are cut short at many points. The
			// backend's retire priority and the energy are checked after
			// every call: a wrong priority would even out over a pair of
			// skips.
			for i := 0; !skipped.Idle(); i++ {
				skipped.Advance(skipped.Cycle() + uint64(data[5+i%(len(data)-5)]))
				for stepped.Cycle() < skipped.Cycle() {
					stepped.Step()
				}
				if skipped.BE != stepped.BE || math.Float64bits(skipped.PM.TrueEnergy()) != math.Float64bits(stepped.PM.TrueEnergy()) {
					t.Fatalf("cycle %d: backend %+v vs %+v, energy %v vs %v", skipped.Cycle(),
						skipped.BE, stepped.BE, skipped.PM.TrueEnergy(), stepped.PM.TrueEnergy())
				}
			}
		case data[1]&2 != 0:
			cycles := uint64(data[2])*997 + 1
			skipped.RunCycles(cycles)
			for range cycles {
				stepped.Step()
			}
		default:
			runUntilIdle(skipped, true)
			runUntilIdle(stepped, false)
		}
		requireSameCore(t, skipped, stepped)
	})
}
