package contract

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// loopProg is the program of a loop over blocks, iters times: the two
// pieces the fuzzer writes a gene as.
func loopProg(blocks []*isa.Block, iters int) isa.Program {
	flat := isa.Flatten(blocks)
	return isa.LoopProgram(flat, isa.ExitBody(flat), iters)
}

// loop is loopProg written out.
func loop(blocks []*isa.Block, iters int) []isa.Inst { return loopProg(blocks, iters).Insts() }

// program is the one-piece program of insts.
func program(insts []isa.Inst) isa.Program { return isa.Program{{Body: insts, Count: 1}} }

func model() cpu.Model { return cpu.Gold6226() }

// TestDeterminism pins the contract's foundation: traces depend only on
// the program, never on the seed — the executor drives raw cycle counts
// with no TSC noise.
func TestDeterminism(t *testing.T) {
	blocks := isa.MixChain(7, 4, true)
	prog := loop(blocks, 20)
	a := NewExecutor(model(), 1).Observe(prog)
	b := NewExecutor(model(), 99).Observe(prog)
	if d, leak := Compare(a, b); leak {
		t.Fatalf("identical programs diverged across seeds: %s", d)
	}
	if len(a) == 0 {
		t.Fatal("empty trace for a real program")
	}
}

// TestNonLeakingPairIsEquivalent pins that the contract does not cry
// wolf: a secret that only changes how LONG the same loop runs leaves
// no persistent frontend state, so the probe traces must be identical.
func TestNonLeakingPairIsEquivalent(t *testing.T) {
	prep := isa.MixChain(11, 4, true)
	probe := isa.MixChain(3, 4, true)
	pair := Pair{
		Prep0: loop(prep, 8),
		Prep1: loop(prep, 9), // secret = iteration count only
		Probe: loop(probe, 5),
	}
	if d, leak := Check(model(), 1, DefaultParams(), pair); leak {
		t.Fatalf("iteration-count secret flagged as a leak: %s", d)
	}
}

// The three sanity anchors: the contract must re-derive the paper's
// known channels as probe-trace divergences with the right mechanism.

func TestAnchorEvictionChannel(t *testing.T) {
	probeBlocks := isa.MixChain(20, 6, true)
	pair := Pair{
		// Secret bit = whether the victim executed the probe's own code
		// (warming its DSB/L1I footprint) or an identically-shaped chain
		// in a different set.
		Prep0: loop(isa.MixChain(13, 6, true), 3),
		Prep1: loop(probeBlocks, 3),
		// Single pass so the LSD never engages: the signal is purely
		// which path delivers the probe's first traversal.
		Probe: loop(probeBlocks, 1),
	}
	t0, t1, d, leak := CheckTraces(model(), 1, DefaultParams(), pair)
	if !leak {
		t.Fatal("DSB eviction channel not visible in the contract")
	}
	if mech := Classify(t0, t1); mech != Eviction {
		t.Fatalf("classified %q, want %q (divergence: %s)", mech, Eviction, d)
	}
}

func TestAnchorMisalignmentChannel(t *testing.T) {
	pair := Pair{
		// Secret bit = whether the victim's chain was misaligned,
		// poisoning the shared alignment tracker.
		Prep0: loop(isa.MixChain(9, 4, true), 10),
		Prep1: loop(isa.MixChain(9, 4, false), 10),
		// The probe loop locks the LSD immediately on a clean tracker
		// but must first age out the poison otherwise.
		Probe: loop(isa.MixChain(5, 3, true), 40),
	}
	t0, t1, d, leak := CheckTraces(model(), 1, DefaultParams(), pair)
	if !leak {
		t.Fatal("LSD misalignment channel not visible in the contract")
	}
	if mech := Classify(t0, t1); mech != Misalignment {
		t.Fatalf("classified %q, want %q (divergence: %s)", mech, Misalignment, d)
	}
}

func TestAnchorSlowSwitchChannel(t *testing.T) {
	// r is chosen so the probe loop's two transition points (DSB->MITE
	// at the first LCP add, MITE->DSB at the tail) map to distinct
	// switch-buffer slots; a power-of-two r makes them alias and the
	// buffer thrashes identically in both arms.
	const r = 14
	start := isa.AddrForSet(6, 4)
	ordered := func() []*isa.Block {
		b := []*isa.Block{isa.LCPBlock(start, r, false)}
		isa.ChainLoop(b)
		return b
	}
	scrambler := []*isa.Block{isa.LCPBlock(isa.AddrForSet(24, 10), r, true)}
	isa.ChainLoop(scrambler)

	shared := loop(ordered(), 5)
	pair := Pair{
		// Both arms run the same ordered-issue LCP loop, training the
		// switch buffer on the probe's transition points; the secret arm 0
		// then runs a mixed-issue loop elsewhere, whose dense transition
		// points conflict-evict those entries. Only switch-buffer state
		// differs when the probe runs.
		Prep0: append(append([]isa.Inst(nil), shared...), loop(scrambler, 3)...),
		Prep1: shared,
		Probe: loop(ordered(), 6),
	}
	t0, t1, d, leak := CheckTraces(model(), 1, DefaultParams(), pair)
	if !leak {
		t.Fatal("decode-switch channel not visible in the contract")
	}
	if mech := Classify(t0, t1); mech != SlowSwitch {
		t.Fatalf("classified %q, want %q (divergence: %s)", mech, SlowSwitch, d)
	}
}

// TestMidStreamCloneReplaysIdentically is the acceptance criterion for
// the clone-completeness fix: snapshot an executor mid-program and the
// clone's remaining observations must be byte-identical.
func TestMidStreamCloneReplaysIdentically(t *testing.T) {
	prog := loop(isa.MixChain(20, 6, true), 12)
	e := NewExecutor(model(), 1)
	e.Observe(loop(isa.MixChain(9, 4, false), 5)) // dirty the machine first

	full := e.Clone().Observe(prog)

	e.Start(program(prog))
	var head Trace
	for i := 0; i < 3; i++ {
		o, ok := e.StepWindow()
		if !ok {
			t.Fatal("program finished before the mid-stream snapshot")
		}
		head = append(head, o)
	}
	snap := e.Clone()

	finish := func(x *Executor) Trace {
		tr := append(Trace(nil), head...)
		for {
			o, ok := x.StepWindow()
			if !ok {
				return tr
			}
			tr = append(tr, o)
		}
	}
	orig := finish(e)
	clone := finish(snap)

	if d, diff := Compare(orig, clone); diff {
		t.Fatalf("clone diverged from original: %s", d)
	}
	if d, diff := Compare(orig, full); diff {
		t.Fatalf("stepwise trace diverged from one-shot trace: %s", d)
	}
}

// TestCompareFindsFirstDivergence pins Compare's reporting.
func TestCompareFindsFirstDivergence(t *testing.T) {
	a := Trace{{Cycles: 10}, {Cycles: 20, UOpsDSB: 4}}
	b := Trace{{Cycles: 10}, {Cycles: 20, UOpsDSB: 5}}
	d, leak := Compare(a, b)
	if !leak || d.Window != 1 || d.Field != "uops_dsb" {
		t.Fatalf("divergence = %+v, leak = %v", d, leak)
	}
	if _, leak := Compare(a, a); leak {
		t.Fatal("identical traces diverged")
	}
	if d, leak := Compare(a, a[:1]); !leak || d.Window != -1 {
		t.Fatalf("length mismatch not reported: %+v %v", d, leak)
	}
}

// TestSnapshotResumesAnyProgramSharingItsPrefix pins the snapshot
// path the fuzzer resumes children on. A phase runs program A = head +
// tail, written as loop pieces, once noting where the frontend reads the
// first instruction of tail and where it tries to read past A, then
// again taking snapshots there. Restored with another program that
// shares A's instructions up to the snapshot, however its pieces are
// laid out, the executor must record exactly the trace a fresh executor
// records for that program, after the same preceding phase.
func TestSnapshotResumesAnyProgramSharingItsPrefix(t *testing.T) {
	prior := loop(isa.MixChain(9, 4, false), 5)
	head := loopProg(isa.MixChain(20, 6, true), 4)
	a := slices.Concat(head, loopProg(isa.MixChain(5, 3, false), 6))
	lcp := []*isa.Block{isa.LCPBlock(isa.AddrForSet(6, 2), 14, false)}
	isa.ChainLoop(lcp)
	other := loopProg(lcp, 3)
	reads := []int{head.Len(), a.Len()}

	run := func() *Executor {
		e := NewExecutor(model(), 1)
		e.Observe(prior)
		e.Start(a)
		return e
	}
	cycles := make([]uint64, len(reads))
	noted := run().FinishNoting(reads, cycles)
	snaps := make([]*Snapshot, len(reads))
	taken := run().FinishTaking(cycles, snaps)
	if d, diff := Compare(noted, taken); diff {
		t.Fatalf("the snapshotting rerun diverged from the noting run: %s", d)
	}
	checked := 0
	for i, prog := range []isa.Program{
		slices.Concat(head, other), // differs after snapshot 0
		slices.Concat(a, other),    // extends A past snapshot 1
		head,                       // ends where snapshot 0 sits
		program(slices.Concat(head, other).Insts()),                          // one piece, differs after snapshot 0
		slices.Concat(program(a.Insts()[:7]), program(a.Insts()[7:]), other), // other pieces, extends A
	} {
		insts := prog.Insts()
		fresh := NewExecutor(model(), 1)
		fresh.Observe(prior)
		want := fresh.Observe(insts)
		for j, s := range snaps {
			if s == nil || len(insts) < reads[j] || !slices.Equal(insts[:reads[j]], a.Insts()[:reads[j]]) {
				continue
			}
			e := NewExecutor(model(), 7)
			e.Observe(loop(isa.MixChain(30, 2, true), 9)) // leave other state behind
			e.Restore(s, prog)
			if got := e.Finish(); !reflect.DeepEqual(got, want) {
				t.Errorf("program %d resumed from snapshot %d: trace differs from a fresh executor's", i, j)
			}
			checked++
		}
	}
	if checked != 7 {
		t.Fatalf("%d resumed runs checked, want 7", checked)
	}
}

// TestWindowGuardCountsFromWindowStart pins that the runaway guard
// counts a window's cycles from its first, so a window resumed from a
// snapshot in its middle trips it exactly as the window stepped whole
// does.
func TestWindowGuardCountsFromWindowStart(t *testing.T) {
	pause := []*isa.Block{isa.PauseBlock(isa.AddrForSet(4, 0), 4)}
	isa.ChainLoop(pause)
	prog := loop(pause, 3)
	// Find the longest window and the cycles strictly inside it.
	var start, longest uint64
	var at uint64
	for _, o := range NewExecutor(model(), 1).Observe(prog) {
		if o.Cycles > longest {
			start, longest = at, o.Cycles
		}
		at += o.Cycles
	}
	if longest < 3 {
		t.Fatalf("longest window only %d cycles", longest)
	}
	p := Params{WindowUOps: DefaultParams().WindowUOps, MaxCycles: longest - 1}
	tripped := func(e *Executor) (ok bool) {
		defer func() { ok = recover() != nil }()
		e.Finish()
		return false
	}
	e := NewExecutorWith(model(), 1, p)
	e.Start(program(prog))
	if !tripped(e) {
		t.Fatalf("a %d-cycle window passed a %d-cycle guard", longest, p.MaxCycles)
	}
	var cycles []uint64
	for c := start + 1; c < start+longest; c += max(1, longest/16) {
		cycles = append(cycles, c)
	}
	snaps := make([]*Snapshot, len(cycles))
	e = NewExecutor(model(), 1)
	e.Start(program(prog))
	e.FinishTaking(cycles, snaps)
	for i, s := range snaps {
		r := NewExecutorWith(model(), 1, p)
		r.Restore(s, program(prog))
		if !tripped(r) {
			t.Fatalf("resumed at cycle %d, the %d-cycle window passed the guard", cycles[i], longest)
		}
	}
}
