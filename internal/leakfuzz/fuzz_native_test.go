package leakfuzz

import (
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/rng"
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
//  5. Resume soundness — a child derived from the genome by a mutation
//     the input selects, its arms resumed from the genome's gene-boundary
//     snapshots the way a campaign evaluates children, records exactly
//     the traces, divergence and verdict fresh executors do.
//  6. Program soundness — each arm's phase programs, drained, yield
//     BuildPair's instructions, which are each armed gene's loop stream
//     in turn; a stream over a phase stands at each gene's end index when it
//     has yielded that gene; and one retargeted at a gene boundary the
//     child shares, to the child's program, yields the child's
//     instructions from there.
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
			t.Fatalf("contract verdict depends on the seed: %v vs %v (%s)", leakA, leakB, g.jsonText())
		}

		pub := g.clone()
		for i := range pub.Prep {
			pub.Prep[i].Alt = AltNone
		}
		if d, leak := contract.Check(m, 1, p, pub.BuildPair()); leak {
			t.Fatalf("identical arms diverged: %s (%s)", d, pub.jsonText())
		}

		e := contract.NewExecutorWith(m, 1, p)
		e.Observe(pair.Prep0)
		e.Start(isa.Program{{Body: pair.Probe, Count: 1}})
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
			t.Fatalf("mid-stream clone diverged from original: %s (%s)", d, g.jsonText())
		}
		if d, diff := contract.Compare(orig, t0a); diff {
			// The stepwise trace must also equal the one-shot arm-0 trace.
			t.Fatalf("stepwise trace diverged from one-shot: %s (%s)", d, g.jsonText())
		}

		reused := contract.NewExecutorWith(m, 1, p)
		reused.Observe(pair.Prep1) // leave state behind for the first Reset
		for arm, prep := range [][]isa.Inst{pair.Prep0, pair.Prep1} {
			fresh := contract.NewExecutorWith(m, 1, p)
			wantPrep, wantProbe := fresh.Observe(prep), fresh.Observe(pair.Probe)
			reused.Reset()
			gotPrep, gotProbe := reused.Observe(prep), reused.Observe(pair.Probe)
			if !slices.Equal(gotPrep, wantPrep) || !slices.Equal(gotProbe, wantProbe) {
				t.Fatalf("arm %d on a reset executor differs from a fresh one (%s)", arm, g.jsonText())
			}
		}

		fz := newFuzzer(Options{Model: m, Seed: 1, Params: p}, storeBudget)
		_, runs := fz.evaluate(g, nil)
		parent := fz.keep(runs, nil)
		h := fnv.New64a()
		h.Write(data)
		fz.r = rng.New(h.Sum64())
		child := fz.mutate(g)
		if got, _ := fz.evaluate(child, parent); !reflect.DeepEqual(got, freshEval(m, 1, p, child)) {
			t.Fatalf("child %s resumed from the snapshots of %s differs from fresh executors", child.jsonText(), g.jsonText())
		}

		checkPrograms(t, g, child, pair)
	})
}

// checkPrograms is FuzzFrontendContract's program invariant for genome
// g, its child and g's written-out pair.
func checkPrograms(t *testing.T, g, child Genome, pair contract.Pair) {
	ls := loops{}
	phases := func(g Genome) [3]phase {
		return [3]phase{build(g.Prep, false, ls), build(g.Prep, true, ls), build(g.Probe, false, ls)}
	}
	kids := phases(child)
	for i, ph := range phases(g) {
		want := [][]isa.Inst{pair.Prep0, pair.Prep1, pair.Probe}[i]
		var ref []isa.Inst
		var ends []int
		for _, gene := range ph.genes {
			ref = append(ref, isa.Drain(isa.NewLoopStream(gene.blocks(), gene.Iters))...)
			ends = append(ends, len(ref))
		}
		if !slices.Equal(isa.Drain(ph.prog.Stream()), want) || !slices.Equal(ref, want) || !slices.Equal(ph.ends, ends) {
			t.Fatalf("phase %d of %s: the program, BuildPair and the genes' loops disagree", i, g.jsonText())
		}

		// Gene by gene through the views the frontend delivers runs from,
		// and Next where a view ends before a loop's back-edge.
		s := ph.prog.Stream()
		for _, end := range ph.ends {
			for s.Pos() < end {
				if k := min(len(s.Ahead()), end-s.Pos()); k > 0 {
					s.Skip(k)
				} else if _, ok := s.Next(); !ok {
					break
				}
			}
			if s.Pos() != end {
				t.Fatalf("phase %d of %s: Pos %d at a gene ending at %d", i, g.jsonText(), s.Pos(), end)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("phase %d of %s: the stream goes on past its last gene", i, g.jsonText())
		}

		kid := kids[i]
		kidInsts := kid.prog.Insts()
		for j := 0; j <= commonPrefix(ph.genes, kid.genes); j++ {
			at := 0
			if j > 0 {
				at = ph.ends[j-1]
			}
			s := ph.prog.Stream()
			for s.Pos() < at {
				s.Next()
			}
			// Detached and resupplied, as a snapshot restores.
			c := s
			c.Retarget(nil)
			c.Retarget(kid.prog)
			if !slices.Equal(isa.Drain(c), kidInsts[at:]) {
				t.Fatalf("phase %d of %s retargeted at gene boundary %d to %s: not the child's instructions", i, g.jsonText(), j, child.jsonText())
			}
		}
	}
}
