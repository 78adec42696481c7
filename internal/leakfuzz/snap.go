package leakfuzz

import (
	"slices"
	"unsafe"

	"repro/internal/contract"
)

// storeBudget bounds the bytes one campaign's snapshot store holds. A
// snapshot's core is about 77 KB on every modeled CPU, and CI-shaped
// campaigns (Gold 6226, budget 2000) keep 49–100 snapshots, 4.5–8.7 MB
// with their traces, so 16 MiB holds every corpus genome's snapshots in
// the common case; past it the least recently used parents lose theirs.
const storeBudget = 16 << 20

// A child differs from its parent in a gene or two, so each of its arms
// shares a prefix of genes with one of its parent's arms, and the
// simulation of that prefix with it. When a genome enters the corpus, the
// campaign keeps executor snapshots of each of its arms at every gene
// boundary; a child's arm restores the deepest one whose gene prefix it
// shares and steps only from there.
//
// An arm's gene boundaries are numbered in execution order: the end of
// each prep gene, the idle core between the phases, then the end of each
// probe gene. The snapshot at the end of a gene is the state at the last
// cycle boundary before the frontend reads the next gene's first
// instruction — or, after a phase's last gene, tries to read past it.
// The frontend reads one instruction ahead, so that state depends only on
// the instructions read before it, and a gene's instructions depend only
// on the gene as its arm alters it. A snapshot therefore resumes any arm
// that runs the same altered genes up to it: in the prep phase, the prep
// genes before it; in the probe phase, the whole prep and the probe genes
// before it.

// arm is one secret arm of a genome, built: its prep and probe phases.
type arm [2]phase

// boundaries returns how many gene boundaries the arm has.
func (a *arm) boundaries() int { return len(a[0].genes) + 1 + len(a[1].genes) }

// armSnaps is one arm of a corpus genome, kept for children to resume
// from: its altered genes, its finished traces, and a snapshot at each of
// its gene boundaries. A snapshot is nil where its state is the one its
// phase started in, which the nearest earlier snapshot, or a fresh core,
// stands for. Its traces have their capacity clipped, so no append
// writes into them.
type armSnaps struct {
	genes       [2][]Gene
	prep, probe contract.Trace
	snaps       []*contract.Snapshot
	bytes       int // the traces' backing arrays
}

// match returns the deepest boundary of s that arm a can resume from, -1
// for none, or exact when a runs s's genes throughout, so that s's
// traces are a's.
func (s *armSnaps) match(a *arm) (j int, exact bool) {
	np := len(s.genes[0])
	lp := commonPrefix(s.genes[0], a[0].genes)
	if lp < np || lp < len(a[0].genes) {
		return lp - 1, false
	}
	lq := commonPrefix(s.genes[1], a[1].genes)
	if lq == len(s.genes[1]) && lq == len(a[1].genes) {
		return 0, true
	}
	return np + lq, false
}

func commonPrefix(a, b []Gene) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// resume finds where arm a can resume among arms: an arm it matches
// exactly, or else the deepest snapshot any of them holds at a boundary
// a shares. j < 0 means none: a runs from a fresh core.
func resume(arms []*armSnaps, a *arm) (src *armSnaps, j int, exact bool) {
	j = -1
	for _, s := range arms {
		k, ex := s.match(a)
		if ex {
			return s, k, true
		}
		for ; k > j && s.snaps[k] == nil; k-- {
		}
		if k > j {
			src, j = s, k
		}
	}
	return src, j, false
}

// run is one arm's evaluation: the arm, its traces, and the cycle of
// each gene boundary it stepped to, past where it resumed — where the
// arm's snapshots go if the genome is admitted. cycles is nil for an arm
// that reused a parent arm's traces.
type run struct {
	arm         *arm
	cycles      []uint64
	prep, probe contract.Trace
}

// evaluate is exec for a campaign candidate. With a store, each arm
// reuses the traces of a parent arm it matches exactly, or resumes from
// the deepest snapshot of the parent's arms it shares a gene prefix with,
// and notes the cycles of the boundaries it steps to. Every trace, the
// divergence and the verdict equal exec's.
func (f *fuzzer) evaluate(g Genome, parent *snapSet) (evalResult, []*run) {
	if f.store == nil {
		return f.exec(g), nil
	}
	var arms []*armSnaps
	if f.store.use(parent) {
		arms = parent.arms
	}
	a0, a1 := f.arms(g)
	r0 := f.observe(a0, arms)
	if a0[0].prog.Equal(a1[0].prog) {
		return evalResult{prep0: r0.prep, prep1: r0.prep, t0: r0.probe, t1: r0.probe}, []*run{r0}
	}
	r1 := f.observe(a1, arms)
	d, leak := contract.Compare(r0.probe, r1.probe)
	return evalResult{prep0: r0.prep, prep1: r1.prep, t0: r0.probe, t1: r1.probe, d: d, leak: leak},
		[]*run{r0, r1}
}

// observe evaluates arm a from where it can resume among the parent's
// arms.
func (f *fuzzer) observe(a *arm, parent []*armSnaps) *run {
	r := &run{arm: a}
	src, j, exact := resume(parent, a)
	if j >= 0 || exact {
		f.store.resumes++
	}
	if exact {
		r.prep, r.probe = src.prep, src.probe
		return r
	}
	r.cycles = make([]uint64, a.boundaries())
	r.prep, r.probe = f.play(a, src, j, r.cycles, nil)
	return r
}

// keep builds an admitted genome's snapshot set and stores it. Each arm
// resumes where its evaluation did, or deeper from the arm kept before
// it, and reruns to its end, taking a snapshot at each boundary its
// evaluation noted; the boundaries up to the resume point share the
// snapshots of the arm it resumed from.
func (f *fuzzer) keep(runs []*run, parent *snapSet) *snapSet {
	if f.store == nil {
		return nil
	}
	set := &snapSet{}
	for _, r := range runs {
		cands := set.arms
		if parent != nil {
			cands = append(slices.Clip(parent.arms), set.arms...)
		}
		src, j, exact := resume(cands, r.arm)
		if !exact {
			s := &armSnaps{
				genes: [2][]Gene{r.arm[0].genes, r.arm[1].genes},
				snaps: make([]*contract.Snapshot, len(r.cycles)),
			}
			if j >= 0 {
				copy(s.snaps, src.snaps[:j+1])
			}
			prep, probe := f.play(r.arm, src, j, r.cycles, s.snaps)
			s.bytes = (cap(prep) + cap(probe)) * int(unsafe.Sizeof(contract.Observation{}))
			s.prep, s.probe = slices.Clip(prep), slices.Clip(probe)
			src = s
		}
		set.arms = append(set.arms, src)
	}
	f.store.add(set)
	return set
}

// play runs arm a on the campaign's executor from boundary j of src, or
// from a fresh core when j < 0, and returns its traces. With snaps nil
// it notes in cycles the cycle of each later boundary; otherwise it takes
// a snapshot into snaps at each of them, at the cycle noted before.
func (f *fuzzer) play(a *arm, src *armSnaps, j int, cycles []uint64, snaps []*contract.Snapshot) (prep, probe contract.Trace) {
	// finish runs the phase out; ends are the reads that reach
	// boundaries from, from+1, ...
	finish := func(ends []int, from int) contract.Trace {
		to := from + len(ends)
		if snaps == nil {
			return f.ex.FinishNoting(ends, cycles[from:to])
		}
		return f.ex.FinishTaking(cycles[from:to], snaps[from:to])
	}
	np := len(a[0].genes)
	switch {
	case j < 0:
		f.ex.Reset()
		f.ex.Start(a[0].prog)
	case j < np:
		f.ex.Restore(src.snaps[j], a[0].prog)
	default:
		prep = src.prep
		f.ex.Restore(src.snaps[j], a[1].prog)
	}
	if j < np {
		prep = finish(a[0].ends[j+1:], j+1)
		if snaps != nil {
			snaps[np] = f.ex.Snapshot()
		}
		j = np
	}
	if j == np {
		f.ex.Start(a[1].prog)
	}
	return prep, finish(a[1].ends[j-np:], j+1)
}

// snapSet is the arms a corpus genome keeps for its children.
type snapSet struct {
	arms []*armSnaps // nil once evicted
	used uint64      // the store's clock at its last use
}

// store holds corpus genomes' snapshot sets within a byte budget. Arms
// and snapshots are shared between sets — a child keeps its parent's
// snapshots for the prefix they share — so each counts once while any
// held set references it.
type store struct {
	budget, bytes int
	arms          map[*armSnaps]int          // held sets referencing each arm
	snaps         map[*contract.Snapshot]int // held arms referencing each snapshot
	held          []*snapSet
	clock         uint64

	// resumes counts arms that resumed or reused a parent arm, evictions
	// the sets dropped, and peak the most bytes held after an admission.
	resumes, evictions, peak int
}

func newStore(budget int) *store {
	return &store{budget: budget, arms: map[*armSnaps]int{}, snaps: map[*contract.Snapshot]int{}}
}

// use marks a set as just used and reports whether it still holds its
// arms.
func (s *store) use(set *snapSet) bool {
	if set == nil || set.arms == nil {
		return false
	}
	s.clock++
	set.used = s.clock
	return true
}

// add holds a new set, then drops whole sets, least recently used
// first, until the store fits its budget again; a set larger than the
// whole budget drops itself.
func (s *store) add(set *snapSet) {
	s.use(set)
	for _, a := range distinct(set.arms) {
		if s.arms[a]++; s.arms[a] > 1 {
			continue
		}
		s.bytes += a.bytes
		for _, sn := range distinct(a.snaps) {
			if s.snaps[sn]++; s.snaps[sn] == 1 {
				s.bytes += sn.Bytes()
			}
		}
	}
	s.held = append(s.held, set)
	for s.bytes > s.budget {
		s.evict()
	}
	s.peak = max(s.peak, s.bytes)
}

// evict drops the held set least recently used; its genome's children
// get plain evaluations from then on.
func (s *store) evict() {
	i := 0
	for k, set := range s.held {
		if set.used < s.held[i].used {
			i = k
		}
	}
	set := s.held[i]
	s.held = slices.Delete(s.held, i, i+1)
	for _, a := range distinct(set.arms) {
		if s.arms[a]--; s.arms[a] > 0 {
			continue
		}
		delete(s.arms, a)
		s.bytes -= a.bytes
		for _, sn := range distinct(a.snaps) {
			if s.snaps[sn]--; s.snaps[sn] == 0 {
				delete(s.snaps, sn)
				s.bytes -= sn.Bytes()
			}
		}
	}
	set.arms = nil
	s.evictions++
}

// distinct returns xs's non-nil elements, each once.
func distinct[T comparable](xs []T) []T {
	var zero T
	var out []T
	for _, x := range xs {
		if x != zero && !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}
