package leakfuzz

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// freshEval evaluates g the reference way: each secret arm on its own
// fresh executor, prep then probe observed, the probe traces compared.
func freshEval(m cpu.Model, seed uint64, p contract.Params, g Genome) evalResult {
	pair := g.BuildPair()
	arm := func(prep []isa.Inst) (contract.Trace, contract.Trace) {
		e := contract.NewExecutorWith(m, seed, p)
		return e.Observe(prep), e.Observe(pair.Probe)
	}
	p0, t0 := arm(pair.Prep0)
	p1, t1 := arm(pair.Prep1)
	d, leak := contract.Compare(t0, t1)
	return evalResult{prep0: p0, prep1: p1, t0: t0, t1: t1, d: d, leak: leak}
}

// reportBytes is what a campaign publishes: its JSON report and its
// final corpus keys.
func reportBytes(t *testing.T, r Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range r.Corpus {
		b = append(append(b, '\n'), g.jsonText()...)
	}
	return b
}

// TestSnapshotsMatchThePlainPath is the snapshot store's oracle. Every
// campaign runs twice: with the store, and with a zero budget, which
// keeps no snapshots and evaluates every arm from a fresh core. The two
// reports must be byte-identical, and in the store run every evaluation
// — resumed from a parent's snapshot, reusing a parent arm's traces, or
// plain — must record exactly what fresh executors record. A -race
// build runs the -short scale: at the full scale the detector's slowdown
// would take most of go test's default ten-minute timeout.
func TestSnapshotsMatchThePlainPath(t *testing.T) {
	seeds, budget := []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 2000
	if testing.Short() || raceEnabled {
		seeds, budget = []uint64{1, 2}, 500
	}
	cases := []struct {
		name string
		m    cpu.Model
		p    contract.Params
	}{
		{"Gold 6226", cpu.Gold6226(), contract.Params{}},
		{"Xeon E-2288G", cpu.XeonE2288G(), contract.Params{}},
		{"8-uop windows", cpu.Gold6226(), contract.Params{WindowUOps: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				o := Options{Model: tc.m, Seed: seed, Budget: budget, Params: tc.p}
				stored := newFuzzer(o, storeBudget)
				stored.onEval = func(g Genome, got evalResult) {
					want := freshEval(tc.m, seed, tc.p, g)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: evaluation of %s differs from fresh executors'", seed, g.jsonText())
					}
				}
				got := reportBytes(t, stored.run())
				if want := reportBytes(t, newFuzzer(o, 0).run()); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: the store changed the campaign's report", seed)
				}
				if stored.store.resumes == 0 {
					t.Fatalf("seed %d: no evaluation resumed from a snapshot", seed)
				}
			}
		})
	}
}

// TestSnapshotStoreHoldsItsBudget runs a campaign whose store fits only
// a few snapshots. It must evict, never hold more than its budget after
// an admission, and still report exactly what an unbounded store does.
func TestSnapshotStoreHoldsItsBudget(t *testing.T) {
	o := Options{Seed: 1, Budget: 500}
	budget := 4 * contract.NewExecutor(cpu.Gold6226(), 1).Snapshot().Bytes()
	small := newFuzzer(o, budget)
	got := reportBytes(t, small.run())
	if want := reportBytes(t, newFuzzer(o, math.MaxInt).run()); !bytes.Equal(got, want) {
		t.Fatal("a bounded store changed the campaign's report")
	}
	s := small.store
	if s.evictions == 0 {
		t.Fatal("a store of four snapshots never evicted")
	}
	if s.peak > budget {
		t.Fatalf("store held %d bytes after an admission, budget %d", s.peak, budget)
	}
	if s.resumes == 0 {
		t.Fatal("no evaluation resumed from a snapshot")
	}
}
