package leakfuzz

import (
	"slices"
	"testing"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// FuzzFrontendContract is the native harness: `go test -fuzz
// FuzzFrontendContract ./internal/leakfuzz` explores genome space with
// the toolchain's own coverage engine, checking the contract's
// foundational invariants on every input instead of hunting for
// divergences directly:
//
//  1. Determinism — the contract's verdict on a pair is seed-independent
//     (the simulator's noise paths are never on the contract's path).
//  2. No false positives — forcing every prep gene public (AltNone)
//     makes the arms byte-identical, so the contract must stay silent.
//  3. Clone soundness — an executor cloned mid-probe finishes with
//     byte-identical observations (clone completeness, exercised from
//     arbitrary machine states).
//  4. Reset soundness — one executor reset before each arm, the way the
//     fuzzer runs a pair, records exactly the prep and probe traces two
//     fresh executors do.
func FuzzFrontendContract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 20, 6, 1, 4, 0, 20, 6, 2, 1})     // eviction-shaped: prep AltSet over probe's set
	f.Add([]byte{1, 0, 9, 4, 10, 6, 0, 5, 3, 40, 1})     // misalignment-shaped: AltFlip prep
	f.Add([]byte{2, 1, 6, 5, 5, 0, 1, 24, 3, 3, 2, 1, 6, // slow-switch-shaped: shared LCP + AltSkip scrambler
		5, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := cpu.Gold6226()
		p := contract.Params{WindowUOps: 16, MaxCycles: 2_000_000}
		g := DecodeGenome(data)
		pair := g.BuildPair()

		t0a, _, _, leakA := contract.CheckTraces(m, 1, p, pair)
		_, _, _, leakB := contract.CheckTraces(m, 42, p, pair)
		if leakA != leakB {
			t.Fatalf("contract verdict depends on the seed: %v vs %v (%s)", leakA, leakB, g.key())
		}

		pub := g.clone()
		for i := range pub.Prep {
			pub.Prep[i].Alt = AltNone
		}
		if d, leak := contract.Check(m, 1, p, pub.BuildPair()); leak {
			t.Fatalf("identical arms diverged: %s (%s)", d, pub.key())
		}

		e := contract.NewExecutorWith(m, 1, p)
		e.Observe(pair.Prep0)
		e.Start(pair.Probe)
		var head contract.Trace
		for i := 0; i < 2; i++ {
			o, ok := e.StepWindow()
			if !ok {
				break
			}
			head = append(head, o)
		}
		snap := e.Clone()
		finish := func(x *contract.Executor) contract.Trace {
			tr := append(contract.Trace(nil), head...)
			for {
				o, ok := x.StepWindow()
				if !ok {
					return tr
				}
				tr = append(tr, o)
			}
		}
		orig, clone := finish(e), finish(snap)
		if d, diff := contract.Compare(orig, clone); diff {
			t.Fatalf("mid-stream clone diverged from original: %s (%s)", d, g.key())
		}
		if d, diff := contract.Compare(orig, t0a); diff {
			// The stepwise trace must also equal the one-shot arm-0 trace.
			t.Fatalf("stepwise trace diverged from one-shot: %s (%s)", d, g.key())
		}

		reused := contract.NewExecutorWith(m, 1, p)
		reused.Observe(pair.Prep1) // leave state behind for the first Reset
		for arm, prep := range [][]isa.Inst{pair.Prep0, pair.Prep1} {
			fresh := contract.NewExecutorWith(m, 1, p)
			wantPrep, wantProbe := fresh.Observe(prep), fresh.Observe(pair.Probe)
			reused.Reset()
			gotPrep, gotProbe := reused.Observe(prep), reused.Observe(pair.Probe)
			if !slices.Equal(gotPrep, wantPrep) || !slices.Equal(gotProbe, wantProbe) {
				t.Fatalf("arm %d on a reset executor differs from a fresh one (%s)", arm, g.key())
			}
		}
	})
}
