package cpu

import (
	"fmt"
	"math"
	"slices"
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
	// beside is set for loops whose joint state with Figure 12's
	// attacker loop on the sibling thread recurs within 60,001 cycles on
	// every hyper-threaded model.
	beside bool
	// short is set for Figure 9's chains, which the skip must cover in
	// each of a series of short calls.
	short bool
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
		{"dsb thrash 9 blocks", isa.MixChain(3, 9, true), 3000, always, true, true},
		{"lsd lock 8 blocks", isa.MixChain(3, 8, true), 5000, always, true, true},
		{"one block", isa.MixChain(4, 1, true), 20000, always, false, false},
		// A lone jump to itself: one-cycle iterations, so a snapshot can
		// come while an aborted sibling's micro-ops still retire.
		{"self jump", chained(isa.NopBlock(isa.AddrForSet(4, 3), 0)), 20000, always, false, false},
		{"misaligned 8 blocks", isa.MixChain(5, 8, false), 3000, always, true, false},
		{"aligned+misaligned 6+3", isa.MixChainMixed(7, 6, 3), 3000, always, true, false},
		{"lcp mixed", chained(isa.LCPBlock(isa.AddrForSet(6, 4), 14, true)), 3000, dyadic, false, false},
		{"lcp ordered", chained(isa.LCPBlock(isa.AddrForSet(9, 2), 14, false)), 3000, dyadic, false, false},
		{"sgx sender", sgxSender(), 1000, always, true, false},
		// Five loads contend for two load ports every iteration.
		{"load ports", loadLoop(isa.AddrForSet(11, 1), 0x20000), 3000, always, false, false},
		// Nine loads cycle through one 8-way L1D set, evicting every
		// line of it each iteration.
		{"l1d thrash", chained(isa.LoadBlock(isa.AddrForSet(12, 1), l1dThrash())), 3000, always, false, false},
		{"pause", chained(isa.PauseBlock(isa.AddrForSet(28, 3), 2)), 200, always, false, false},
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
// dead IDQ slots, the recency order of every set and float bits.
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

// runCycles runs c for n cycles through RunCycles when skip is set and
// through plain Step otherwise.
func runCycles(c *Core, n uint64, skip bool) {
	if skip {
		c.RunCycles(n)
		return
	}
	for range n {
		c.Step()
	}
}

// TestSteadySkipMatchesStep runs every loop shape on every model through
// the run loops on one core and through plain Step on its clone, and
// requires the two cores to end in identical state: after RunUntilIdle,
// after RunCycles with an odd budget that ends mid-loop, with a second
// thread that finishes first, so the DSB partition reverts mid-run, and
// beside Figure 12's attacker loop on the sibling thread, through both
// run loops. Beside the attacker, the loops marked beside must fire a
// skip while both threads loop; whether the others' joint state recurs
// is not pinned. Figure 9's chains, the loops marked short (the
// eight-block chain is its LSD path, or its DSB path on a model without
// an LSD), also run as Figure 9 runs its windows: five RunUntilIdle
// calls from an idle core, each on a fresh loop of 60 iterations, each
// of which must fire a skip.
func TestSteadySkipMatchesStep(t *testing.T) {
	beside := func(c *Core, loop steadyLoop, attacker int) {
		c.Enqueue(0, isa.NewLoopStream(fingerprintAttacker(), attacker), nil)
		c.Enqueue(1, isa.NewLoopStream(loop.blocks, loop.iters), nil)
	}
	modes := []struct {
		name  string
		ht    bool // needs a second hardware thread
		joint bool // both threads loop, so the skip may or may not fire
		short bool // runs only the loops marked short
		run   func(c *Core, loop steadyLoop, skip bool)
	}{
		{"RunUntilIdle", false, false, false, func(c *Core, loop steadyLoop, skip bool) {
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			runUntilIdle(c, skip)
		}},
		{"RunCycles mid-loop", false, false, false, func(c *Core, loop steadyLoop, skip bool) {
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			runCycles(c, 40_001, skip)
		}},
		{"aborted sibling", true, false, false, func(c *Core, loop steadyLoop, skip bool) {
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
		{"sibling finishes first", true, false, false, func(c *Core, loop steadyLoop, skip bool) {
			c.Enqueue(1, isa.NewLoopStream(isa.MixChain(20, 6, true), 30), nil)
			c.Enqueue(0, isa.NewLoopStream(loop.blocks, loop.iters), nil)
			runUntilIdle(c, skip)
			if c.FE.DSB.Partitioned() || c.FE.DSB.Stats().Partitions < 2 {
				panic("the DSB partition did not revert")
			}
		}},
		{"beside the attacker RunCycles", true, true, false, func(c *Core, loop steadyLoop, skip bool) {
			beside(c, loop, 100_000)
			before := loopSkips.Load()
			runCycles(c, 60_001, skip)
			if skip && loop.beside && (loopSkips.Load() == before || !c.Busy(0) || !c.Busy(1)) {
				panic("no skip fired while both threads looped")
			}
		}},
		{"beside the attacker RunUntilIdle", true, true, false, func(c *Core, loop steadyLoop, skip bool) {
			beside(c, loop, 1500)
			runUntilIdle(c, skip)
		}},
		{"short runs", false, false, true, func(c *Core, loop steadyLoop, skip bool) {
			for range 5 {
				before := loopSkips.Load()
				c.Enqueue(0, isa.NewLoopStream(loop.blocks, 60), nil)
				runUntilIdle(c, skip)
				if skip && loopSkips.Load() == before {
					panic("a short run fired no skip")
				}
			}
		}},
	}
	for _, m := range steadyModels() {
		for _, loop := range steadyLoops() {
			for _, mode := range modes {
				if mode.ht && !m.HyperThreading || mode.short && !loop.short {
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
					if want := loop.recurs(m); !mode.joint && fired != want {
						t.Fatalf("skip fired %v, want %v", fired, want)
					}
				})
			}
		}
	}
}

// steadyPair returns a Gold 6226 core 5,000 cycles into Figure 12's
// attacker loop beside a 60-window victim, whose joint state recurs.
func steadyPair() *Core {
	c := NewCore(Gold6226(), 1)
	c.Enqueue(0, isa.NewLoopStream(fingerprintAttacker(), 100_000), nil)
	c.Enqueue(1, isa.NewLoopStream(fingerprintVictim(60), 100_000), nil)
	runCycles(c, 5_000, false)
	return c
}

// firstSkip runs a clone of c through a RunCycles call of 30,001 cycles
// until its first skip, and returns the cycle of the snapshot that
// recurred, the boundary it recurred at and the cycle the skip landed on.
func firstSkip(t *testing.T, c *Core) (armed, at, landed uint64) {
	t.Helper()
	probe := c.Clone()
	end := probe.Cycle() + 30_001
	var d loopDetector
	defer d.disarm(probe)
	for skips := loopSkips.Load(); probe.Cycle() < end; {
		if d.snap != nil {
			armed = d.snap.cycle
		}
		at = probe.Cycle() + 1
		d.step(probe, probe.step(), end)
		if loopSkips.Load() != skips {
			return armed, at, probe.Cycle()
		}
	}
	t.Fatal("the two-thread skip did not fire")
	return 0, 0, 0
}

// TestTwoThreadSkipEndsOnTheLimit ends a RunCycles call on the cycle a
// two-thread skip lands on, so that no stepped cycle follows the skip
// to set what Step sets every cycle both threads run (the DSB
// partition's last two-thread cycle): the core must equal a stepped
// one. A call with a larger budget detects the same period at the same
// boundary.
func TestTwoThreadSkipEndsOnTheLimit(t *testing.T) {
	c := steadyPair()
	_, _, landed := firstSkip(t, c)
	skipped, stepped := c.Clone(), c.Clone()
	skipped.RunCycles(landed - c.Cycle())
	runCycles(stepped, landed-c.Cycle(), false)
	requireSameCore(t, skipped, stepped)
}

// TestTwoThreadRecurrenceChecksHoldAndParity takes a core at a boundary
// where two threads' loops recur to the detector's snapshot and changes
// what only two-thread cycles read: a different MITE fetch hold, or one
// cycle more (an odd period, which swaps the fetch grant and the retire
// priority), must each break the recurrence.
func TestTwoThreadRecurrenceChecksHoldAndParity(t *testing.T) {
	c := steadyPair()
	armed, at, _ := firstSkip(t, c)
	runCycles(c, armed-c.Cycle(), false)
	var d loopDetector
	d.retarget(c)
	d.arm(c)
	defer d.disarm(c)
	for c.Cycle() < at {
		d.record(c, c.step())
	}
	if !d.recurs(c) {
		t.Fatal("the boundary does not recur")
	}
	hold := c.miteHold
	if c.miteHold = 0; hold == 0 {
		c.miteHold = -1
	}
	if d.recurs(c) {
		t.Error("a different fetch hold still recurs")
	}
	c.miteHold = hold
	c.cycle++
	if d.recurs(c) {
		t.Error("an odd period still recurs")
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
// thread and run mode — and, with bit 2 of the second byte set on a
// hyper-threaded model, a second loop on the sibling thread, and
// requires the run loops, or Advance at limits the input sets, to leave
// the core in exactly the state plain stepping does. With bit 4 set the
// loop runs as Figure 9 runs its windows: a series of RunUntilIdle
// calls on one core, each on a fresh loop of 20 to 83 iterations.
func FuzzSteadySkip(f *testing.F) {
	f.Add([]byte{0, 0, 200, 3, 7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 120, 5, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	f.Add([]byte{4, 1, 90, 6, 1, 1 | 5<<3})
	f.Add([]byte{3, 0, 60, 28, 2, 2 | 20<<3, 3})
	f.Add([]byte{2, 4, 255, 20, 6, 0, 0, 0, 0, 0, 2 | 29<<3})
	f.Add([]byte{0, 8, 20, 28, 2, 3 | 2<<3, 0, 3 | 17<<3})
	f.Add([]byte{0, 9, 10, 6, 1, 1 | 5<<3, 3 | 30<<3})
	f.Add([]byte{0, 4, 200, 3, 7, 0, 0, 0, 2 | 12<<3})
	f.Add([]byte{1, 6, 120, 9, 3, 2 | 30<<3, 0, 4})
	f.Add([]byte{0, 16, 40, 3, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 16, 104, 3, 7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 16 | 4, 40, 5, 8, 4, 0, 4, 0})
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
		short := data[1]&16 != 0
		n := iters
		if short {
			n = 20 + int(data[2])%64
		}
		skipped := NewCore(m, uint64(data[0]))
		skipped.Enqueue(thread, isa.NewLoopStream(blocks, n), nil)
		if data[1]&4 != 0 && m.HyperThreading {
			// The sibling's loop: the same kinds in other sets, reversed.
			kinds := slices.Clone(data[5:])
			slices.Reverse(kinds)
			sibling := fuzzLoop((int(data[3])+16)%isa.DSBSets, 1+int(data[4]>>4)%10, kinds)
			skipped.Enqueue(1-thread, isa.NewLoopStream(sibling, iters/2+int(data[0])*8), nil)
		}
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
		case short:
			// As many calls as the loop's iterations make, each compared
			// with stepping.
			for range iters / n {
				runUntilIdle(skipped, true)
				runUntilIdle(stepped, false)
				requireSameCore(t, skipped, stepped)
				skipped.Enqueue(thread, isa.NewLoopStream(blocks, n), nil)
				stepped.Enqueue(thread, isa.NewLoopStream(blocks, n), nil)
			}
			runUntilIdle(skipped, true)
			runUntilIdle(stepped, false)
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
