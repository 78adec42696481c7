package frontend

import (
	"strings"
	"testing"

	"repro/internal/clonecheck"
	"repro/internal/isa"
	"repro/internal/rng"
)

// newLSD builds thread 0's detector from the default parameters.
func newLSD(enabled bool) *LSD {
	l := NewLSD(DefaultParams(), 0, enabled)
	return &l
}

// observeLoop feeds the LSD `iters` passes over the chained blocks, as if
// delivered by the frontend, with every window DSB-resident.
func observeLoop(l *LSD, blocks []*isa.Block, iters int) {
	d := newDSB()
	for _, b := range blocks {
		for _, in := range b.Insts {
			d.Fill(l.thread, isa.Window(in.Addr), 1, nil)
			d.Fill(l.thread, isa.Window(in.End()-1), 1, nil)
		}
	}
	feedLoop(l, d, blocks, iters)
}

// feedLoop feeds the LSD `iters` passes over the chained blocks with the
// DSB d and a clean alignment tracker.
func feedLoop(l *LSD, d *DSB, blocks []*isa.Block, iters int) {
	align := NewAlignTracker(l.p.LSDPoisonCap)
	s := isa.NewLoopStream(blocks, iters)
	for {
		in, ok := s.Next()
		if !ok {
			return
		}
		l.Observe(in, &align, d)
	}
}

func TestLSDLockAfterStableIterations(t *testing.T) {
	l := newLSD(true)
	blocks := isa.MixChain(2, 4, true)
	observeLoop(l, blocks, 4)
	if !l.Locked() {
		t.Fatal("LSD should lock after stable iterations")
	}
	if l.LockedHead() != blocks[0].Start() {
		t.Errorf("head = %#x, want %#x", l.LockedHead(), blocks[0].Start())
	}
}

func TestLSDCapacityLimit(t *testing.T) {
	l := newLSD(true)
	// 14 blocks x 5 uops = 70 > 64: never locks (multi-set chain so the
	// window-slot rule isn't what rejects it).
	blocks := make([]*isa.Block, 14)
	for i := range blocks {
		blocks[i] = isa.MixBlock(isa.AddrForSet(i, 0))
	}
	isa.ChainLoop(blocks)
	observeLoop(l, blocks, 6)
	if l.Locked() {
		t.Error("loop above 64 uops must not lock")
	}
}

func TestLSDDisabled(t *testing.T) {
	l := newLSD(false)
	observeLoop(l, isa.MixChain(2, 4, true), 6)
	if l.Locked() {
		t.Error("disabled LSD locked")
	}
}

func TestLSDInBodyWindows(t *testing.T) {
	l := newLSD(true)
	blocks := isa.MixChain(2, 4, true)
	observeLoop(l, blocks, 4)
	if !l.Locked() {
		t.Fatal("precondition: locked")
	}
	for _, b := range blocks {
		if !l.InBody(isa.Window(b.Start())) {
			t.Errorf("window of %#x should be in body", b.Start())
		}
	}
	if l.InBody(isa.Window(isa.AddrForSet(17, 9))) {
		t.Error("unrelated window reported in body")
	}
}

func TestLSDNotifyEvictionFlushesBodyWindow(t *testing.T) {
	l := newLSD(true)
	blocks := isa.MixChain(2, 4, true)
	observeLoop(l, blocks, 4)
	l.NotifyEviction(isa.Window(blocks[1].Start()))
	if l.Locked() {
		t.Error("eviction of a body window must flush the lock (inclusive hierarchy)")
	}
	if l.Flushes() == 0 {
		t.Error("flush not counted")
	}
}

func TestLSDNotifyEvictionIgnoresForeignWindow(t *testing.T) {
	l := newLSD(true)
	observeLoop(l, isa.MixChain(2, 4, true), 4)
	l.NotifyEviction(isa.Window(isa.AddrForSet(30, 3)))
	if !l.Locked() {
		t.Error("eviction outside the body must not flush")
	}
}

func TestLSDLoopExit(t *testing.T) {
	l := newLSD(true)
	observeLoop(l, isa.MixChain(2, 4, true), 4)
	l.LoopExit()
	if l.Locked() {
		t.Error("LoopExit left LSD locked")
	}
}

func TestLSDResidencyRequired(t *testing.T) {
	// A loop whose windows are not all DSB-resident cannot lock: the LSD
	// is inclusive in the DSB.
	l := newLSD(true)
	feedLoop(l, newDSB(), isa.MixChain(2, 4, true), 6)
	if l.Locked() {
		t.Error("locked without DSB residency")
	}
}

func TestAlignTrackerSaturationAndDecay(t *testing.T) {
	a := NewAlignTracker(3)
	for i := 0; i < 10; i++ {
		a.Note()
	}
	if a.Level() != 3 {
		t.Errorf("level = %d, want cap 3", a.Level())
	}
	a.Decay()
	a.Decay()
	if a.Level() != 1 || !a.Poisoned() {
		t.Errorf("level = %d, want 1", a.Level())
	}
	a.Decay()
	a.Decay() // extra decay is a no-op at 0
	if a.Poisoned() || a.Level() != 0 {
		t.Error("tracker should be clean")
	}
}

func TestSwitchBufferLearning(t *testing.T) {
	var b switchBuffer
	addr := uint64(0x2000)
	if b.cost(addr) {
		t.Error("first occurrence should be unlearned")
	}
	if b.cost(addr) {
		t.Error("second occurrence should still be unlearned")
	}
	if !b.cost(addr) {
		t.Error("third occurrence should be learned")
	}
	b.reset()
	if b.cost(addr) {
		t.Error("reset should forget")
	}
}

func TestSwitchBufferConflictsDefeatLearning(t *testing.T) {
	var b switchBuffer
	// More distinct transition points than entries, hitting the same slot.
	addrs := []uint64{0x1000, 0x1010, 0x1020, 0x1030, 0x1040, 0x1050, 0x1060, 0x1070, 0x1080}
	learned := 0
	for round := 0; round < 10; round++ {
		for _, a := range addrs {
			if b.cost(a) {
				learned++
			}
		}
	}
	if learned > 20 {
		t.Errorf("dense transition pattern learned %d times; conflicts should defeat learning", learned)
	}
}

// plainRun returns 1 to 8 instructions that follow one another inside
// window w, none a jump, pause or LCP instruction, of 1 to 3 micro-ops.
func plainRun(r *rng.RNG, w uint64) []isa.Inst {
	kinds := []isa.Kind{isa.Mov, isa.Add, isa.Nop, isa.Load, isa.Store}
	addr := w*isa.WindowBytes + uint64(r.Intn(8))
	end := (w + 1) * isa.WindowBytes
	var run []isa.Inst
	for n := 1 + r.Intn(8); len(run) < n && addr < end; {
		l := 1 + uint64(r.Intn(min(6, int(end-addr))))
		run = append(run, isa.Inst{Addr: addr, Len: uint8(l), UOps: uint8(1 + r.Intn(3)), Kind: kinds[r.Intn(len(kinds))]})
		addr += l
	}
	return run
}

// TestObserveRunMatchesObserve requires ObserveRun over a run of plain
// instructions to leave a detector, and its alignment tracker, exactly
// as Observe over each instruction does. The detectors start from random
// states: disabled or locked, tracking a candidate or not, its micro-op
// count far from or near the capacity, the run's window already noted
// or not.
func TestObserveRunMatchesObserve(t *testing.T) {
	p := DefaultParams()
	r := rng.New(7)
	dsb := newDSB()
	states := map[string]int{}
	// detector is an LSD with the tracker the frontend hands it.
	type detector struct {
		LSD   LSD
		Align AlignTracker
	}
	for i := range 5000 {
		w := 100 + uint64(r.Intn(16))
		var x detector
		x.LSD, x.Align = NewLSD(p, 0, r.Intn(6) != 0), NewAlignTracker(p.LSDPoisonCap)
		a := &x.LSD
		a.locked = r.Intn(5) == 0
		a.tracking = r.Intn(4) != 0
		a.head = w * isa.WindowBytes
		a.uops = r.Intn(p.LSDCapacityUOps + 1)
		if r.Bool(0.5) {
			a.uops = p.LSDCapacityUOps - r.Intn(8)
		}
		for range r.Intn(p.LSDWindowSlots) {
			a.noteWindow(100 + uint64(r.Intn(16)))
		}
		a.crossings, a.stable = r.Intn(3), r.Intn(3)
		a.lastSig = loopSig{head: a.head, uops: r.Intn(64), windows: r.Intn(8)}
		x.Align.poison = r.Intn(p.LSDPoisonCap + 1)
		y := x

		run := plainRun(r, w)
		uops := 0
		for _, in := range run {
			uops += int(in.UOps)
		}
		switch {
		case !a.enabled:
			states["disabled"]++
		case a.locked:
			states["locked"]++
		case !a.tracking:
			states["idle"]++
		case a.uops+uops > p.LSDCapacityUOps:
			states["outgrown"]++
		default:
			states["tracking"]++
		}
		for _, in := range run {
			a.Observe(in, &x.Align, dsb)
		}
		y.LSD.ObserveRun(w, uops)
		if diff := clonecheck.Diff(x, y); len(diff) != 0 {
			t.Fatalf("case %d, run of %d micro-ops in window %d:\n%s", i, uops, w, strings.Join(diff, "\n"))
		}
	}
	for _, s := range []string{"disabled", "locked", "idle", "outgrown", "tracking"} {
		if states[s] == 0 {
			t.Fatalf("no case started %s: %v", s, states)
		}
	}
}
