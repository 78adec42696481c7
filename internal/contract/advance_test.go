package contract

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/clonecheck"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// stepWindow is StepWindow with every cycle stepped, none skipped; after
// runs after each cycle.
func stepWindow(e *Executor, after func()) (Observation, bool) {
	target := e.win.retired + uint64(e.p.WindowUOps)
	for e.core.Retired(0) < target {
		if e.core.Idle() {
			if e.core.Retired(0) == e.win.retired {
				return Observation{}, false
			}
			break
		}
		e.core.Step()
		after()
	}
	o := e.closeWindow()
	e.tr = append(e.tr, o)
	return o, true
}

// stallModel is the contract's model with a static power inexact in
// binary, so that a stall's energy added other than one cycle at a time
// shows in the windows' energy bits.
func stallModel() cpu.Model {
	m := model()
	m.PW.StaticWatts = 45.3
	return m
}

// stallPrep is a prep phase of lone-thread stalls: a mix loop, a pause
// pad and a walk over 1-byte nop windows, one per 64-byte line, each
// missing the L1I.
func stallPrep() isa.Program {
	pause := []*isa.Block{isa.PauseBlock(isa.AddrForSet(28, 3), 4)}
	isa.ChainLoop(pause)
	var walk []*isa.Block
	for i := range 6 {
		walk = append(walk, isa.NopBlockLen(isa.AddrForSet(2*i, 5), 24, 1))
	}
	isa.ChainLoop(walk)
	return slices.Concat(loopProg(isa.MixChain(7, 4, true), 20), loopProg(pause, 3), loopProg(walk, 1))
}

// lcpProbe is a probe whose isolated LCPs leave fractional stall debt
// (0.12 × 2.56 cycles each).
func lcpProbe() isa.Program {
	lcp := []*isa.Block{isa.LCPBlock(isa.AddrForSet(6, 4), 14, true)}
	isa.ChainLoop(lcp)
	return loopProg(lcp, 5)
}

func requireSame(t *testing.T, what string, a, b any) {
	t.Helper()
	if diff := clonecheck.Diff(a, b); len(diff) != 0 {
		t.Fatalf("%s differs:\n%s", what, strings.Join(diff, "\n"))
	}
}

// TestStepWindowMatchesStep holds StepWindow, which skips a lone
// thread's stalls in bulk, to a window loop that steps every cycle: the
// same windows, down to float bits, and the same core after each.
func TestStepWindowMatchesStep(t *testing.T) {
	skipped, stepped := NewExecutor(stallModel(), 1), NewExecutor(stallModel(), 1)
	for _, prog := range []isa.Program{stallPrep(), lcpProbe()} {
		skipped.Start(prog)
		stepped.Start(prog)
		for w := 0; ; w++ {
			a, okA := skipped.StepWindow()
			b, okB := stepWindow(stepped, func() {})
			if okA != okB {
				t.Fatalf("window %d: ok %v vs %v", w, okA, okB)
			}
			requireSame(t, "window", a, b)
			requireSame(t, "core", skipped.core, stepped.core)
			if !okA {
				break
			}
		}
	}
	if ctr := skipped.core.FE.Ctr[0]; ctr.StallCycles < 12*140 || ctr.L1IMisses < 6 || ctr.LCPStallCycles == 0 {
		t.Fatalf("the phases did not stall as built: %+v", ctr)
	}
}

// TestSnapshotInsideAStallMatchesStep takes snapshots with FinishTaking
// at cycles in the middle of stalls, which StepWindow must stop a skip
// at, and requires each to resume in the state stepping reaches there.
func TestSnapshotInsideAStallMatchesStep(t *testing.T) {
	prog := stallPrep()
	stepped := NewExecutor(stallModel(), 1)
	stepped.Start(prog)
	var cycles []uint64
	var want []*Executor
	n := 0
	// Every 37th cycle that leaves a stall at least two cycles to run,
	// so the snapshots spread over the pause pad and the nop walk.
	at := func() {
		if c := stepped.core; c.FE.StallSpan(0) >= 2 && c.FE.IDQLen(0) == 0 {
			if n++; n%37 == 1 {
				cycles = append(cycles, c.Cycle())
				want = append(want, stepped.Clone())
			}
		}
	}
	for {
		if _, ok := stepWindow(stepped, at); !ok {
			break
		}
	}
	if len(cycles) < 10 {
		t.Fatalf("only %d snapshot cycles inside stalls", len(cycles))
	}
	e := NewExecutor(stallModel(), 1)
	e.Start(prog)
	snaps := make([]*Snapshot, len(cycles))
	requireSame(t, "trace", e.FinishTaking(cycles, snaps), stepped.tr)
	for i, s := range snaps {
		if s == nil {
			t.Fatalf("no snapshot at cycle %d", cycles[i])
		}
		r := NewExecutor(stallModel(), 1)
		r.Restore(s, prog)
		requireSame(t, "restored core", r.core, want[i].core)
		requireSame(t, "restored window", r.win, want[i].win)
		requireSame(t, "restored trace", r.tr, want[i].tr)
	}
}
