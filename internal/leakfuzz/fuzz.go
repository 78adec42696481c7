package leakfuzz

import (
	"sort"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/spec"
)

// Options configures one fuzzing campaign. The zero value fuzzes the
// Gold 6226 with seed 1 and a small smoke budget.
type Options struct {
	// Model is the simulated CPU; zero Name means Gold 6226.
	Model cpu.Model
	// Seed drives mutation and the simulator cores. Same (Seed, Budget,
	// Model) always reproduces the same report.
	Seed uint64
	// Budget is the number of mutated candidates to evaluate. Execution
	// count, not wall time, so CI budgets are deterministic.
	Budget int
	// Params are the contract recording parameters; a zero field takes
	// its contract.DefaultParams value.
	Params contract.Params
	// Extra seeds the corpus with additional genomes (a persisted
	// corpus directory, or regression genomes) besides the built-ins.
	Extra []Genome
}

func (o Options) normalize() Options {
	if o.Model.Name == "" {
		o.Model = cpu.Gold6226()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Budget <= 0 {
		o.Budget = 2000
	}
	return o
}

// Finding is one minimized leakage counterexample.
type Finding struct {
	// Mechanism is the classified channel family.
	Mechanism contract.Mechanism `json:"mechanism"`
	// Genome is the minimized counterexample.
	Genome Genome `json:"genome"`
	// Divergence is the first contract divergence the pair exhibits.
	Divergence contract.Divergence `json:"divergence"`
	// Executions is the evaluation count at discovery.
	Executions int `json:"executions"`
	// Spec is a near-valid ChannelSpec candidate for the family — the
	// scenario-space point a calibrated channel of this mechanism would
	// occupy. Absent for families outside the spec vocabulary.
	Spec *spec.ChannelSpec `json:"spec,omitempty"`
}

// Report summarizes a campaign.
type Report struct {
	Model      string    `json:"model"`
	Seed       uint64    `json:"seed"`
	Budget     int       `json:"budget"`
	Executions int       `json:"executions"`
	CorpusSize int       `json:"corpus"`
	Features   int       `json:"features"`
	Findings   []Finding `json:"findings"`

	// Corpus is the final coverage-increasing corpus, for persisting
	// across campaigns (cmd/leakfuzz -corpus). Excluded from the JSON
	// report: it is an input to future runs, not a result.
	Corpus []Genome `json:"-"`
}

// Mechanisms returns the sorted set of mechanisms found.
func (r Report) Mechanisms() []string {
	seen := map[string]bool{}
	for _, f := range r.Findings {
		seen[string(f.Mechanism)] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// minimizeBudget bounds the shrink loop per finding, outside the main
// budget so Budget stays an exact mutation-evaluation count.
const minimizeBudget = 400

type fuzzer struct {
	o       Options
	r       *rng.RNG
	ex      *contract.Executor // restored before every secret arm
	loops   loops              // the loop bodies the arms' programs run
	corpus  []Genome
	sets    []*snapSet // corpus genomes' snapshots, by corpus index
	store   *store     // nil: every evaluation runs from a fresh core
	keys    map[string]bool
	cov     coverage
	found   map[contract.Mechanism]bool
	report  Report
	minLeft int

	// onEval, if set, sees every budget and seed evaluation (tests).
	onEval func(Genome, evalResult)
}

// Run executes one deterministic fuzzing campaign.
func Run(o Options) Report { return newFuzzer(o, storeBudget).run() }

// newFuzzer sets up a campaign whose snapshot store holds at most
// budget bytes; a zero budget keeps no snapshots at all.
func newFuzzer(o Options, budget int) *fuzzer {
	o = o.normalize()
	f := &fuzzer{
		o:     o,
		r:     rng.New(rng.SplitSeed(o.Seed, "leakfuzz")),
		ex:    contract.NewExecutorWith(o.Model, o.Seed, o.Params),
		loops: loops{},
		keys:  map[string]bool{},
		cov:   coverage{},
		found: map[contract.Mechanism]bool{},
	}
	if budget > 0 {
		f.store = newStore(budget)
	}
	f.report = Report{Model: o.Model.Name, Seed: o.Seed, Budget: o.Budget}
	return f
}

func (f *fuzzer) run() Report {
	for _, g := range append(seedCorpus(), f.o.Extra...) {
		f.consider(g.Normalize(), nil)
	}
	for f.report.Executions < f.o.Budget && len(f.corpus) > 0 {
		i := f.r.Intn(len(f.corpus))
		f.consider(f.mutate(f.corpus[i]), f.sets[i])
	}
	f.report.CorpusSize = len(f.corpus)
	f.report.Features = len(f.cov)
	f.report.Corpus = append([]Genome(nil), f.corpus...)
	return f.report
}

// seedCorpus returns the built-in benign starting points: probe-only
// genomes covering each substrate, plus a two-phase skeleton. None of
// them leaks (their arms are identical); the known channels are a
// mutation or two away, which is the point — the fuzzer must cross the
// gap itself, guided by coverage.
func seedCorpus() []Genome {
	return []Genome{
		{Probe: []Gene{{Op: OpMix, Set: 20, Ways: 6, Iters: 2, Flag: true}}},
		{Probe: []Gene{{Op: OpMix, Set: 5, Ways: 3, Iters: 40, Flag: true}}},
		{Probe: []Gene{{Op: OpLCP, Set: 6, Ways: 5, Iters: 6}}},
		{Probe: []Gene{{Op: OpNop, Set: 9, Ways: 2, Iters: 4}}},
		{
			Prep:  []Gene{{Op: OpMix, Set: 13, Ways: 6, Iters: 3, Flag: true}},
			Probe: []Gene{{Op: OpMix, Set: 20, Ways: 6, Iters: 1, Flag: true}},
		},
	}
}

// evalResult carries one candidate's traces and verdict.
type evalResult struct {
	prep0, prep1 contract.Trace
	t0, t1       contract.Trace
	d            contract.Divergence
	leak         bool
}

// arms builds a normalized genome's two secret arms over the campaign's
// loop bodies; they share the probe phase.
func (f *fuzzer) arms(g Genome) (a0, a1 *arm) {
	probe := build(g.Probe, false, f.loops)
	return &arm{build(g.Prep, false, f.loops), probe}, &arm{build(g.Prep, true, f.loops), probe}
}

// exec evaluates a normalized genome, each secret arm on the campaign's
// executor reset to a fresh core: prep phases are observed too (their
// traces feed coverage; an attacker does not see them, so only the probe
// traces are compared). When both arms run the same instructions, arm 1
// would replay arm 0 exactly on the deterministic executor, so arm 0's
// traces stand for both and the arms cannot diverge. Minimization runs
// here; budget candidates go through evaluate.
func (f *fuzzer) exec(g Genome) evalResult {
	a0, a1 := f.arms(g)
	p0, t0 := f.runArm(a0)
	if a0[0].prog.Equal(a1[0].prog) {
		return evalResult{prep0: p0, prep1: p0, t0: t0, t1: t0}
	}
	p1, t1 := f.runArm(a1)
	d, leak := contract.Compare(t0, t1)
	return evalResult{prep0: p0, prep1: p1, t0: t0, t1: t1, d: d, leak: leak}
}

// runArm runs arm a on the campaign's executor from a fresh core.
func (f *fuzzer) runArm(a *arm) (prep, probe contract.Trace) {
	f.ex.Reset()
	f.ex.Start(a[0].prog)
	prep = f.ex.Finish()
	f.ex.Start(a[1].prog)
	return prep, f.ex.Finish()
}

// consider evaluates one candidate, a child of parent's genome or, for
// a nil parent, a seed; admits it to the corpus on new coverage, with
// snapshots for its own children; and records a finding when it leaks
// through a family not yet seen.
func (f *fuzzer) consider(g Genome, parent *snapSet) {
	k := g.key()
	if f.keys[k] {
		return
	}
	f.keys[k] = true
	f.report.Executions++
	res, runs := f.evaluate(g, parent)
	if f.onEval != nil {
		f.onEval(g, res)
	}
	mech := contract.Unknown
	if res.leak {
		mech = contract.Classify(res.t0, res.t1)
	}
	fresh := f.cov.addAll(
		[]contract.Trace{res.prep0, res.prep1, res.t0, res.t1},
		res.leak, mech,
	)
	if fresh > 0 {
		f.corpus = append(f.corpus, g)
		f.sets = append(f.sets, f.keep(runs, parent))
	}
	if res.leak && !f.found[mech] {
		f.found[mech] = true
		at := f.report.Executions
		min := f.minimize(g, mech)
		final := f.exec(min)
		f.report.Findings = append(f.report.Findings, Finding{
			Mechanism:  mech,
			Genome:     min,
			Divergence: final.d,
			Executions: at,
			Spec:       candidateSpec(f.o.Model, mech, f.o.Seed),
		})
	}
}

// keepsMechanism reports whether a shrunk candidate still leaks through
// the same family.
func (f *fuzzer) keepsMechanism(g Genome, mech contract.Mechanism) bool {
	if f.minLeft <= 0 {
		return false
	}
	f.minLeft--
	res := f.exec(g)
	return res.leak && contract.Classify(res.t0, res.t1) == mech
}

// minimize greedily shrinks a leaking genome while the leak and its
// classification persist: drop prep genes, drop surplus probe genes,
// then walk iteration and way counts down.
func (f *fuzzer) minimize(g Genome, mech contract.Mechanism) Genome {
	f.minLeft = minimizeBudget
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(g.Prep); i++ {
			c := g.clone()
			c.Prep = append(c.Prep[:i], c.Prep[i+1:]...)
			if f.keepsMechanism(c, mech) {
				g, changed = c, true
				i--
			}
		}
		for i := 0; len(g.Probe) > 1 && i < len(g.Probe); i++ {
			c := g.clone()
			c.Probe = append(c.Probe[:i], c.Probe[i+1:]...)
			if f.keepsMechanism(c, mech) {
				g, changed = c, true
				i--
			}
		}
		for gi := 0; gi < len(g.Prep)+len(g.Probe); gi++ {
			for _, field := range []string{"iters", "ways"} {
				for {
					c := g.clone()
					p := geneAt(&c, gi)
					v := p.Iters
					if field == "ways" {
						v = p.Ways
					}
					if v/2 < 1 {
						break
					}
					if field == "ways" {
						p.Ways = v / 2
					} else {
						p.Iters = v / 2
					}
					if !f.keepsMechanism(c, mech) {
						break
					}
					g, changed = c, true
				}
			}
		}
	}
	return g
}

// geneAt indexes the genome's genes as one sequence, prep first.
func geneAt(g *Genome, i int) *Gene {
	if i < len(g.Prep) {
		return &g.Prep[i]
	}
	return &g.Probe[i-len(g.Prep)]
}

// mutate derives a child genome with one or two point mutations.
func (f *fuzzer) mutate(g Genome) Genome {
	c := g.clone()
	for n := 1 + f.r.Intn(2); n > 0; n-- {
		f.mutateOnce(&c)
	}
	return c.Normalize()
}

// pick returns a pointer to a uniformly chosen gene.
func (f *fuzzer) pick(g *Genome) *Gene {
	i := f.r.Intn(len(g.Prep) + len(g.Probe))
	if i < len(g.Prep) {
		return &g.Prep[i]
	}
	return &g.Probe[i-len(g.Prep)]
}

func (f *fuzzer) randGene() Gene {
	return Gene{
		Op:    Op(f.r.Intn(int(opCount))),
		Set:   f.r.Intn(32),
		Ways:  1 + f.r.Intn(maxWays),
		Iters: 1 + f.r.Intn(16),
		Flag:  f.r.Bool(0.5),
		Alt:   Alt(f.r.Intn(int(altCount))),
	}
}

func (f *fuzzer) mutateOnce(g *Genome) {
	switch f.r.Intn(9) {
	case 0:
		f.pick(g).Set = f.r.Intn(32)
	case 1:
		f.pick(g).Ways = 1 + f.r.Intn(maxWays)
	case 2:
		gene := f.pick(g)
		switch f.r.Intn(4) {
		case 0:
			gene.Iters = 1
		case 1:
			gene.Iters *= 2
		case 2:
			gene.Iters++
		default:
			gene.Iters = 1 + f.r.Intn(maxIters)
		}
	case 3:
		gene := f.pick(g)
		gene.Flag = !gene.Flag
	case 4:
		f.pick(g).Op = Op(f.r.Intn(int(opCount)))
	case 5:
		// Re-draw a prep gene's secret role. The single most important
		// operator: it is what turns a benign two-phase program into a
		// secret-pair.
		if len(g.Prep) > 0 {
			g.Prep[f.r.Intn(len(g.Prep))].Alt = Alt(f.r.Intn(int(altCount)))
		}
	case 6:
		// Insert a prep gene: fresh, or a copy of a probe gene (the
		// eviction/slow-switch channels need prep to touch the probe's
		// own footprint).
		gene := f.randGene()
		if f.r.Bool(0.5) {
			gene = g.Probe[f.r.Intn(len(g.Probe))]
			gene.Alt = Alt(f.r.Intn(int(altCount)))
		}
		pos := f.r.Intn(len(g.Prep) + 1)
		g.Prep = append(g.Prep[:pos], append([]Gene{gene}, g.Prep[pos:]...)...)
	case 7:
		if len(g.Prep) > 0 {
			i := f.r.Intn(len(g.Prep))
			g.Prep = append(g.Prep[:i], g.Prep[i+1:]...)
		}
	case 8:
		// Probe structure: add or remove a probe gene.
		if f.r.Bool(0.5) || len(g.Probe) == 1 {
			gene := f.randGene()
			gene.Alt = AltNone
			g.Probe = append(g.Probe, gene)
		} else {
			i := f.r.Intn(len(g.Probe))
			g.Probe = append(g.Probe[:i], g.Probe[i+1:]...)
		}
	}
}

// candidateSpec projects a classified finding onto the ChannelSpec
// scenario space: the plain non-MT timing point of its mechanism, the
// configuration a calibrated exploit of the counterexample would start
// from. Families outside the spec vocabulary (bpu, unknown) have no
// projection.
func candidateSpec(m cpu.Model, mech contract.Mechanism, seed uint64) *spec.ChannelSpec {
	switch mech {
	case contract.Eviction, contract.Misalignment, contract.SlowSwitch:
		s := spec.ChannelSpec{
			Model:     m.Name,
			Mechanism: spec.Mechanism(mech),
			Threading: spec.ThreadingNonMT,
			Sink:      spec.SinkTiming,
			Seed:      seed,
		}.Normalize()
		return &s
	}
	return nil
}
