package leakfuzz

import (
	"reflect"
	"testing"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/rng"
)

// ciSeed/ciBudget are the fixed campaign the CI smoke job runs (via
// cmd/leakfuzz). TestRediscoversKnownChannels pins the exact outcome, so
// a behaviour change in the simulator that alters the findings fails
// here first, with full context.
const (
	ciSeed   = 1
	ciBudget = 2000
)

// TestRediscoversKnownChannels is the tentpole acceptance criterion: a
// fixed-seed campaign must rediscover all three of the paper's channel
// families — DSB eviction, LSD misalignment, decode slow-switch — and
// produce no unclassified counterexamples on the default model.
func TestRediscoversKnownChannels(t *testing.T) {
	r := ciCampaign()
	got := map[contract.Mechanism]Finding{}
	for _, f := range r.Findings {
		got[f.Mechanism] = f
	}
	for _, want := range []contract.Mechanism{contract.Eviction, contract.Misalignment, contract.SlowSwitch} {
		if _, ok := got[want]; !ok {
			t.Errorf("mechanism %q not rediscovered (found %v)", want, r.Mechanisms())
		}
	}
	if f, ok := got[contract.Unknown]; ok {
		t.Errorf("unclassified counterexample on the default model: %s (genome %s)",
			f.Divergence, f.Genome.key())
	}
	// Every reported finding must be self-contained: re-running its
	// minimized genome from scratch reproduces the leak and the
	// classification.
	for _, f := range r.Findings {
		pair := f.Genome.BuildPair()
		t0, t1, d, leak := contract.CheckTraces(cpu.Gold6226(), ciSeed, contract.DefaultParams(), pair)
		if !leak {
			t.Errorf("%s finding does not reproduce: %s", f.Mechanism, f.Genome.key())
			continue
		}
		if mech := contract.Classify(t0, t1); mech != f.Mechanism {
			t.Errorf("finding reclassifies as %q, reported %q (divergence %s)", mech, f.Mechanism, d)
		}
		if f.Spec != nil {
			if err := f.Spec.Validate(); err != nil {
				t.Errorf("%s candidate spec invalid: %v", f.Mechanism, err)
			}
		}
	}
}

// TestRunDeterministic pins that a campaign is a pure function of its
// options: two runs produce identical reports, findings and all.
func TestRunDeterministic(t *testing.T) {
	opts := Options{Seed: 7, Budget: 300}
	a, b := Run(opts), Run(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different reports:\n%+v\nvs\n%+v", a, b)
	}
	if Run(Options{Seed: 8, Budget: 300}).Executions != 300 {
		t.Fatal("budget not spent exactly")
	}
}

// TestPartialParamsKeepTheirFields pins that a partly set
// Options.Params keeps the fields it sets: only a zero field takes its
// default, so 8-micro-op windows stay 8 micro-ops wide instead of
// silently reverting to the default 16.
func TestPartialParamsKeepTheirFields(t *testing.T) {
	run := func(p contract.Params) Report { return Run(Options{Seed: 3, Budget: 100, Params: p}) }
	def := contract.DefaultParams()
	cases := []struct {
		name      string
		got, want contract.Params
	}{
		{"zero", contract.Params{}, def},
		{"window only", contract.Params{WindowUOps: 8}, contract.Params{WindowUOps: 8, MaxCycles: def.MaxCycles}},
		{"cycles only", contract.Params{MaxCycles: 2_000_000}, contract.Params{WindowUOps: def.WindowUOps, MaxCycles: 2_000_000}},
	}
	for _, tc := range cases {
		if got, want := run(tc.got), run(tc.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Params %+v ran differently from %+v: %d vs %d features",
				tc.name, tc.got, tc.want, got.Features, want.Features)
		}
	}
	if reflect.DeepEqual(run(contract.Params{WindowUOps: 8}), run(def)) {
		t.Error("8-micro-op windows ran exactly like the default 16")
	}
}

// TestIdenticalArmsNeverLeak is the no-false-positive property: a genome
// whose prep genes carry no secret alteration runs byte-identical arms,
// so the contract must never flag it.
func TestIdenticalArmsNeverLeak(t *testing.T) {
	r := rng.New(99)
	m := cpu.Gold6226()
	for i := 0; i < 40; i++ {
		var g Genome
		for n := r.Intn(4); n > 0; n-- {
			g.Prep = append(g.Prep, randomGene(r))
		}
		for n := 1 + r.Intn(3); n > 0; n-- {
			g.Probe = append(g.Probe, randomGene(r))
		}
		g = g.Normalize()
		for j := range g.Prep {
			g.Prep[j].Alt = AltNone
		}
		if d, leak := contract.Check(m, 1, contract.DefaultParams(), g.BuildPair()); leak {
			t.Fatalf("identical arms diverged: %s (genome %s)", d, g.key())
		}
	}
}

// TestCheckTracesRunsPrepLikeTheFuzzer pins one way to run a phase:
// CheckTraces runs each arm's prep through Observe, as the fuzzer's exec
// does, so its probe traces equal an executor's Observe(prep) then
// Observe(probe) exactly — raw energy included. Prep-less genomes are
// the sharp case: an empty prep phase still drains transients and steps
// a cycle, and skipping it changes every window's energy after the
// first.
func TestCheckTracesRunsPrepLikeTheFuzzer(t *testing.T) {
	r := rng.New(5)
	m := cpu.Gold6226()
	p := contract.DefaultParams()
	for i := 0; i < 30; i++ {
		data := make([]byte, 1+geneBytes*(1+r.Intn(maxProbeGenes)))
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		data[0] = 0 // no prep genes
		g := DecodeGenome(data)
		if len(g.Prep) != 0 {
			t.Fatalf("genome decoded with prep genes: %s", g.key())
		}
		pair := g.BuildPair()
		t0, t1, _, _ := contract.CheckTraces(m, 1, p, pair)
		probes := []contract.Trace{t0, t1}
		for arm, prep := range [][]isa.Inst{pair.Prep0, pair.Prep1} {
			e := contract.NewExecutorWith(m, 1, p)
			e.Observe(prep)
			if want := e.Observe(pair.Probe); !reflect.DeepEqual(probes[arm], want) {
				t.Fatalf("arm %d: CheckTraces probe trace differs from Observe(prep), Observe(probe) (%s)", arm, g.key())
			}
		}
	}
}

func randomGene(r *rng.RNG) Gene {
	return Gene{
		Op:    Op(r.Intn(int(opCount))),
		Set:   r.Intn(64) - 16,
		Ways:  r.Intn(12) - 1,
		Iters: r.Intn(80) - 10,
		Flag:  r.Bool(0.5),
		Alt:   Alt(r.Intn(int(altCount))),
	}
}

// TestDecodeGenomeTotal pins that DecodeGenome is total and normalizing:
// arbitrary bytes produce a buildable genome with public probes.
func TestDecodeGenomeTotal(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		data := make([]byte, r.Intn(64))
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		g := DecodeGenome(data)
		if len(g.Probe) == 0 || len(g.Probe) > maxProbeGenes || len(g.Prep) > maxPrepGenes {
			t.Fatalf("decoded genome out of bounds: %s", g.key())
		}
		for _, gene := range g.Probe {
			if gene.Alt != AltNone {
				t.Fatalf("probe gene carries a secret alteration: %s", g.key())
			}
		}
		pair := g.BuildPair() // must not panic
		if len(pair.Probe) == 0 {
			t.Fatalf("decoded genome has an empty probe program: %s", g.key())
		}
	}
	if !reflect.DeepEqual(DecodeGenome([]byte{2, 1, 2, 3, 4, 5}), DecodeGenome([]byte{2, 1, 2, 3, 4, 5})) {
		t.Fatal("DecodeGenome not deterministic")
	}
}

// TestMinimizedGenomesAreMinimal spot-checks the minimizer: the eviction
// finding from the CI campaign must not shrink further by dropping a
// gene while keeping its mechanism.
func TestMinimizedGenomesAreMinimal(t *testing.T) {
	r := ciCampaign()
	m := cpu.Gold6226()
	for _, f := range r.Findings {
		g := f.Genome
		for i := range g.Prep {
			c := g.clone()
			c.Prep = append(c.Prep[:i], c.Prep[i+1:]...)
			t0, t1, _, leak := contract.CheckTraces(m, ciSeed, contract.DefaultParams(), c.BuildPair())
			if leak && contract.Classify(t0, t1) == f.Mechanism {
				t.Errorf("%s finding still shrinkable: prep gene %d removable from %s",
					f.Mechanism, i, g.key())
			}
		}
	}
}
