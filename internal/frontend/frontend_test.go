package frontend

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// newFE builds a frontend with a warm, large L1I so instruction cache
// effects don't perturb path-timing tests (the paper's attacks cause no
// L1I misses; Section IV-F).
func newFE(lsdEnabled bool) *Frontend { return newFEWith(DefaultParams(), lsdEnabled) }

// newFEWith is newFE with parameters p.
func newFEWith(p Params, lsdEnabled bool) *Frontend {
	f := New(p, cache.New(cache.L1Config), lsdEnabled)
	return &f
}

// run drives thread t's stream to completion with a 4-wide backend drain
// and returns the cycle count.
func run(t *testing.T, f *Frontend, tid int, s isa.SeqStream) int {
	t.Helper()
	f.SetStream(tid, s)
	cycles := 0
	for !f.StreamDone(tid) || f.IDQLen(tid) > 0 {
		f.DeliverCycle(tid)
		for i := 0; i < 4; i++ {
			f.PopUOp(tid)
		}
		cycles++
		if cycles > 5_000_000 {
			t.Fatal("runaway stream")
		}
	}
	return cycles
}

// slope measures steady-state cycles per loop iteration by differencing
// two run lengths (warmup cancels out).
func slope(t *testing.T, mk func() *Frontend, blocks []*isa.Block, n1, n2 int) float64 {
	t.Helper()
	f1 := mk()
	c1 := run(t, f1, 0, isa.NewLoopStream(blocks, n1))
	f2 := mk()
	c2 := run(t, f2, 0, isa.NewLoopStream(blocks, n2))
	return float64(c2-c1) / float64(n2-n1)
}

func TestColdChainUsesMITEThenDSB(t *testing.T) {
	f := newFE(false)
	blocks := isa.MixChain(3, 4, true)
	run(t, f, 0, isa.NewLoopStream(blocks, 1))
	c1 := f.Ctr[0]
	if c1.UOpsMITE == 0 {
		t.Error("first iteration should decode through MITE")
	}
	if c1.UOpsDSB != 0 {
		t.Error("first iteration should not hit DSB")
	}
	run(t, f, 0, isa.NewLoopStream(blocks, 1))
	c2 := f.Ctr[0].Sub(c1)
	if c2.UOpsDSB == 0 {
		t.Error("second pass should hit DSB")
	}
	if c2.UOpsMITE != 0 {
		t.Errorf("second pass should not use MITE, got %d uops", c2.UOpsMITE)
	}
}

func TestLSDLocksOnSmallAlignedLoop(t *testing.T) {
	f := newFE(true)
	blocks := isa.MixChain(3, 8, true) // 40 uops, 8 windows: qualifies
	run(t, f, 0, isa.NewLoopStream(blocks, 20))
	if f.LSDFor(0).Locks() == 0 {
		t.Fatal("LSD never locked on a qualifying loop")
	}
	if f.Ctr[0].UOpsLSD == 0 {
		t.Error("no micro-ops delivered from LSD")
	}
}

func TestLSDDoesNotLockWhenDisabled(t *testing.T) {
	f := newFE(false)
	blocks := isa.MixChain(3, 8, true)
	run(t, f, 0, isa.NewLoopStream(blocks, 20))
	if f.Ctr[0].UOpsLSD != 0 {
		t.Error("disabled LSD delivered micro-ops")
	}
}

func TestNineBlockChainNeverLocksAndThrashes(t *testing.T) {
	// Section IV-F: 9 same-set blocks exceed the 8 ways; DSB evictions
	// flush the LSD and redirect delivery to MITE.
	f := newFE(true)
	blocks := isa.MixChain(3, 9, true)
	run(t, f, 0, isa.NewLoopStream(blocks, 20))
	if f.Ctr[0].UOpsLSD != 0 {
		t.Error("9-block same-set chain must not stream from LSD")
	}
	// Steady state must keep missing: MITE dominates.
	if f.Ctr[0].UOpsMITE < f.Ctr[0].UOpsDSB {
		t.Errorf("thrash should be MITE-dominated: MITE=%d DSB=%d",
			f.Ctr[0].UOpsMITE, f.Ctr[0].UOpsDSB)
	}
}

func TestPathTimingOrdering(t *testing.T) {
	// Figure 2: for the jmp-dense mix blocks, DSB is fastest, LSD sits in
	// the middle, and MITE+DSB (the 9-block eviction thrash) is slowest.
	aligned8 := isa.MixChain(3, 8, true)
	thrash9 := isa.MixChain(3, 9, true)

	dsb := slope(t, func() *Frontend { return newFE(false) }, aligned8, 50, 150)
	lsd := slope(t, func() *Frontend { return newFE(true) }, aligned8, 50, 150)
	mite := slope(t, func() *Frontend { return newFE(true) }, thrash9, 50, 150)
	// Normalize per block.
	dsb /= 8
	lsd /= 8
	mite /= 9

	if !(dsb < lsd && lsd < mite) {
		t.Errorf("path ordering violated: DSB=%.2f LSD=%.2f MITE=%.2f cycles/block", dsb, lsd, mite)
	}
}

func TestMisalignedChainDoesNotLock(t *testing.T) {
	// Section IV-G: 4 misaligned same-set blocks collide in the LSD.
	f := newFE(true)
	blocks := isa.MixChain(3, 4, false)
	run(t, f, 0, isa.NewLoopStream(blocks, 20))
	if f.Ctr[0].UOpsLSD != 0 {
		t.Error("misaligned chain must not stream from LSD")
	}
}

func TestMixedAlignmentPairsBlockLSD(t *testing.T) {
	// The {aligned + misaligned} pairs of Section IV-G that force
	// LSD-to-DSB switches.
	pairs := [][2]int{{5, 2}, {6, 2}, {3, 3}, {4, 3}, {5, 3}, {7, 1}}
	for _, p := range pairs {
		f := newFE(true)
		blocks := isa.MixChainMixed(3, p[0], p[1])
		run(t, f, 0, isa.NewLoopStream(blocks, 20))
		if f.Ctr[0].UOpsLSD != 0 {
			t.Errorf("{%da+%dm} chain streamed from LSD; paper says it must fall back to DSB", p[0], p[1])
		}
	}
}

func TestAlignedPairsStillLock(t *testing.T) {
	// Fully aligned chains up to 8 blocks keep using the LSD.
	for _, n := range []int{4, 7, 8} {
		f := newFE(true)
		run(t, f, 0, isa.NewLoopStream(isa.MixChain(3, n, true), 20))
		if f.LSDFor(0).Locks() == 0 {
			t.Errorf("%d-block aligned chain should lock the LSD", n)
		}
	}
}

func TestMisalignmentPoisonsThenDecays(t *testing.T) {
	f := newFE(true)
	// Misaligned loop poisons the shared tracker.
	run(t, f, 0, isa.NewLoopStream(isa.MixChain(3, 3, false), 10))
	if !f.Align().Poisoned() {
		t.Fatal("misaligned loop left tracker clean")
	}
	// A long aligned run decays it and eventually locks again.
	run(t, f, 0, isa.NewLoopStream(isa.MixChain(3, 5, true), 60))
	if f.Align().Poisoned() {
		t.Error("aligned iterations should decay the tracker to clean")
	}
	if f.LSDFor(0).Locks() == 0 {
		t.Error("aligned loop should lock once the tracker decayed")
	}
}

func TestCrossThreadMisalignmentBlocksLock(t *testing.T) {
	// Section V-B's MT misalignment mechanism: thread 1's misaligned
	// accesses prevent thread 0's loop from (re)locking.
	f := newFE(true)
	// Poison via thread 1.
	run(t, f, 1, isa.NewLoopStream(isa.MixChain(7, 3, false), 10))
	// Thread 0 runs a short qualifying loop; tracker is still poisoned.
	run(t, f, 0, isa.NewLoopStream(isa.MixChain(3, 5, true), 8))
	if f.Ctr[0].UOpsLSD != 0 {
		t.Error("thread 0 locked despite cross-thread misalignment poisoning")
	}
}

func TestPartitionFlushesLSDAndEvicts(t *testing.T) {
	f := newFE(true)
	blocks := isa.MixChain(21, 6, true) // set 21: relocated on partition
	run(t, f, 0, isa.NewLoopStream(blocks, 10))
	if f.LSDFor(0).Locks() == 0 {
		t.Fatal("precondition: loop should lock")
	}
	f.SetPartitioned(true)
	if f.LSDFor(0).Locked() {
		t.Error("partitioning must flush the LSD")
	}
	w := isa.Window(blocks[0].Start())
	if f.DSB.Contains(0, w) {
		t.Error("set-21 window must be invalidated for thread 0 after partitioning")
	}
}

func TestPartitionSurvivorSetKeepsWindows(t *testing.T) {
	f := newFE(true)
	blocks := isa.MixChain(5, 6, true) // set 5 survives partitioning for thread 0
	run(t, f, 0, isa.NewLoopStream(blocks, 10))
	f.SetPartitioned(true)
	for _, b := range blocks {
		if !f.DSB.Contains(0, isa.Window(b.Start())) {
			t.Fatalf("window %#x should survive partitioning", b.Start())
		}
	}
}

func TestEvictionRedirectsToMITE(t *testing.T) {
	// The non-MT eviction attack signal: after 3 extra same-set blocks,
	// re-running the original 6 needs MITE again.
	f := newFE(false)
	victim := isa.MixChain(9, 6, true)
	run(t, f, 0, isa.NewLoopStream(victim, 3))
	pre := f.Ctr[0]

	extra := make([]*isa.Block, 3)
	for i := range extra {
		extra[i] = isa.MixBlock(isa.AddrForSet(9, 6+i))
	}
	isa.ChainLoop(extra)
	run(t, f, 0, isa.NewLoopStream(extra, 3))

	mid := f.Ctr[0]
	run(t, f, 0, isa.NewLoopStream(victim, 1))
	post := f.Ctr[0].Sub(mid)
	if post.UOpsMITE == 0 {
		t.Error("victim blocks should need MITE after eviction")
	}
	_ = pre
}

func TestNoEvictionStaysDSB(t *testing.T) {
	// Control for the above: extra blocks in a different set leave the
	// victim resident.
	f := newFE(false)
	victim := isa.MixChain(9, 6, true)
	run(t, f, 0, isa.NewLoopStream(victim, 3))

	extra := make([]*isa.Block, 3)
	for i := range extra {
		extra[i] = isa.MixBlock(isa.AddrForSet(13, 6+i))
	}
	isa.ChainLoop(extra)
	run(t, f, 0, isa.NewLoopStream(extra, 3))

	mid := f.Ctr[0]
	run(t, f, 0, isa.NewLoopStream(victim, 1))
	post := f.Ctr[0].Sub(mid)
	if post.UOpsMITE != 0 {
		t.Errorf("victim blocks should stay in DSB, got %d MITE uops", post.UOpsMITE)
	}
}

func TestLCPOrderedVsMixed(t *testing.T) {
	// Figure 4's shape: ordered issue accumulates more LCP stall cycles
	// (consecutive LCPs serialize); mixed issue accumulates far more
	// switch-penalty cycles (transition points defeat the switch buffer);
	// and mixed finishes faster overall (IPC 0.67 vs 0.59).
	mk := func() *Frontend { return newFE(false) }
	const iters = 400

	fMixed := mk()
	cyMixed := run(t, fMixed, 0, isa.NewLoopStream([]*isa.Block{isa.LCPBlock(0x2000, 16, true)}, iters))
	fOrd := mk()
	cyOrd := run(t, fOrd, 0, isa.NewLoopStream([]*isa.Block{isa.LCPBlock(0x2000, 16, false)}, iters))

	if fOrd.Ctr[0].LCPStallCycles <= fMixed.Ctr[0].LCPStallCycles {
		t.Errorf("ordered LCP stalls (%.0f) should exceed mixed (%.0f)",
			fOrd.Ctr[0].LCPStallCycles, fMixed.Ctr[0].LCPStallCycles)
	}
	if fMixed.Ctr[0].SwitchCycles <= fOrd.Ctr[0].SwitchCycles {
		t.Errorf("mixed switch cycles (%.1f) should exceed ordered (%.1f)",
			fMixed.Ctr[0].SwitchCycles, fOrd.Ctr[0].SwitchCycles)
	}
	if cyMixed >= cyOrd {
		t.Errorf("mixed issue (%d cy) should be faster than ordered (%d cy)", cyMixed, cyOrd)
	}
}

func TestIDQBoundsRespected(t *testing.T) {
	f := newFE(false)
	f.SetStream(0, isa.NewLoopStream(isa.MixChain(0, 4, true), 100))
	// Never drain: IDQ must cap at capacity.
	for i := 0; i < 200; i++ {
		f.DeliverCycle(0)
		if f.IDQLen(0) > f.P.IDQCapacity {
			t.Fatalf("IDQ overflow: %d > %d", f.IDQLen(0), f.P.IDQCapacity)
		}
	}
	if f.IDQLen(0) == 0 {
		t.Error("IDQ empty after undrained delivery")
	}
}

func TestStreamDoneAndIdle(t *testing.T) {
	f := newFE(false)
	if !f.StreamDone(0) {
		t.Error("fresh thread should be done")
	}
	f.DeliverCycle(0)
	if f.Ctr[0].IdleCycles != 1 {
		t.Error("idle cycle not counted")
	}
}

func TestMispredictOnLoopExit(t *testing.T) {
	f := newFE(true)
	run(t, f, 0, isa.NewLoopStream(isa.MixChain(2, 4, true), 30))
	if f.Ctr[0].Mispredicts == 0 {
		t.Error("loop exit should mispredict at least once")
	}
}

func TestResetCounters(t *testing.T) {
	f := newFE(false)
	run(t, f, 0, isa.NewLoopStream(isa.MixChain(2, 4, true), 3))
	f.ResetCounters()
	if f.Ctr[0].UOps() != 0 {
		t.Error("counters not cleared")
	}
}

func TestMisalignedBlocksCostTwoDSBGroups(t *testing.T) {
	// A misaligned block spans two windows, so DSB delivery needs two
	// cycles per block where an aligned block needs one — the signal the
	// misalignment attacks use on LSD-less machines.
	mkFE := func() *Frontend { return newFE(false) }
	al := slope(t, mkFE, isa.MixChain(3, 4, true), 50, 150)
	mis := slope(t, mkFE, isa.MixChain(3, 4, false), 50, 150)
	if mis <= al {
		t.Errorf("misaligned slope (%.2f) should exceed aligned (%.2f)", mis, al)
	}
}
