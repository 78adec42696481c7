package frontend

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

// tickDSB is a reference model of the DSB's LRU replacement: every
// entry carries the tick of its last use and a valid bit, a fill evicts
// the entries with the oldest ticks until the window fits and takes the
// first invalid slot, and an invalidation clears a valid bit in place.
// It is the replacement the DSB implemented before it kept its sets in
// recency order, kept here so the ordered sets can be checked against
// it.
type tickDSB struct {
	p           Params
	sets        [isa.DSBSets][isa.DSBWays]tickEntry
	tick        uint64
	partitioned bool
	stats       DSBStats
}

type tickEntry struct {
	window      uint64
	thread      int
	lines, uops int
	lru         uint64
	valid       bool
}

func (m *tickDSB) find(thread int, window uint64) *tickEntry {
	set := &m.sets[setIndex(thread, window, m.partitioned)]
	for i := range set {
		if e := &set[i]; e.valid && e.thread == thread && e.window == window {
			return e
		}
	}
	return nil
}

func (m *tickDSB) Lookup(thread int, window uint64) bool {
	m.tick++
	e := m.find(thread, window)
	if e == nil {
		m.stats.Misses++
		return false
	}
	e.lru = m.tick
	m.stats.Hits++
	return true
}

func (m *tickDSB) Fill(thread int, window uint64, uops int, evicted []Evicted) []Evicted {
	lines := max((uops+m.p.DSBLineUOps-1)/m.p.DSBLineUOps, 1)
	if lines > m.p.DSBLinesPerWindow || m.find(thread, window) != nil {
		return evicted
	}
	m.tick++
	set := &m.sets[setIndex(thread, window, m.partitioned)]
	for m.occupied(set)+lines > isa.DSBWays {
		var v *tickEntry
		for i := range set {
			if set[i].valid && (v == nil || set[i].lru < v.lru) {
				v = &set[i]
			}
		}
		evicted = append(evicted, Evicted{Thread: v.thread, Window: v.window})
		v.valid = false
		m.stats.Evictions++
	}
	for i := range set {
		if !set[i].valid {
			set[i] = tickEntry{window: window, thread: thread, lines: lines, uops: uops, lru: m.tick, valid: true}
			break
		}
	}
	m.stats.Fills++
	return evicted
}

func (m *tickDSB) occupied(set *[isa.DSBWays]tickEntry) int {
	n := 0
	for _, e := range set {
		if e.valid {
			n += e.lines
		}
	}
	return n
}

func (m *tickDSB) SetPartitioned(on bool, evicted []Evicted) []Evicted {
	if m.partitioned == on {
		return evicted
	}
	for si := range m.sets {
		for i := range m.sets[si] {
			if e := &m.sets[si][i]; e.valid && setIndex(e.thread, e.window, on) != si {
				evicted = append(evicted, Evicted{Thread: e.thread, Window: e.window})
				e.valid = false
				m.stats.Evictions++
			}
		}
	}
	m.partitioned = on
	m.stats.Partitions++
	return evicted
}

// invalidate drops each of thread's windows that gone reports true for.
func (m *tickDSB) invalidate(thread int, gone func(window uint64) bool) {
	for si := range m.sets {
		for i := range m.sets[si] {
			if e := &m.sets[si][i]; e.valid && e.thread == thread && gone(e.window) {
				e.valid = false
				m.stats.Evictions++
			}
		}
	}
}

func (m *tickDSB) InvalidateWindowRange(thread int, addr, bytes uint64) {
	first, last := isa.Window(addr), isa.Window(addr+bytes-1)
	m.invalidate(thread, func(w uint64) bool { return w >= first && w <= last })
}

func (m *tickDSB) InvalidateThread(thread int) {
	m.invalidate(thread, func(uint64) bool { return true })
}

// order returns the valid entries of set si as a DSB holds them, most
// recently used first.
func (m *tickDSB) order(si int) []dsbEntry {
	set := slices.DeleteFunc(slices.Clone(m.sets[si][:]), func(e tickEntry) bool { return !e.valid })
	slices.SortFunc(set, func(a, b tickEntry) int { return cmp.Compare(b.lru, a.lru) })
	out := make([]dsbEntry, len(set))
	for i, e := range set {
		out[i] = dsbEntry{window: e.window, uops: int32(e.uops), thread: uint8(e.thread), lines: uint8(e.lines)}
	}
	return out
}

// TestDSBMatchesTickLRU drives a DSB and the tick-stamped model through
// random sequences of lookups, fills of 1 to 20 micro-ops (one to four
// lines; past three, uncacheable), repartitions, range invalidations and
// thread invalidations over a few sets, so that sets fill, thrash and
// empty again. After every operation the two must return the same,
// evict the same windows (in order for a fill, as a multiset for a
// repartition), count the same statistics and lines, and hold the same
// entries in every set, in the same recency order.
func TestDSBMatchesTickLRU(t *testing.T) {
	byWindow := func(a, b Evicted) int {
		return cmp.Or(cmp.Compare(a.Thread, b.Thread), cmp.Compare(a.Window, b.Window))
	}
	r := rng.New(7)
	for seq := range 50 {
		d, m := newDSB(), &tickDSB{p: DefaultParams()}
		for op := range 400 {
			thread := r.Intn(2)
			w := windowForSet(r.Intn(4)*9%isa.DSBSets, r.Intn(12))
			var got, want []Evicted
			var hit, modelHit bool
			switch k := r.Intn(20); {
			case k < 6:
				hit, modelHit = d.Lookup(thread, w), m.Lookup(thread, w)
			case k < 15:
				uops := 1 + r.Intn(20)
				got, want = d.Fill(thread, w, uops, nil), m.Fill(thread, w, uops, nil)
			case k < 17:
				on := r.Bool(0.5)
				got, want = d.SetPartitioned(on, nil), m.SetPartitioned(on, nil)
				slices.SortFunc(got, byWindow)
				slices.SortFunc(want, byWindow)
			case k < 19:
				addr, bytes := isa.AddrForSet(r.Intn(isa.DSBSets), r.Intn(12)), uint64(1+r.Intn(4096))
				d.InvalidateWindowRange(thread, addr, bytes)
				m.InvalidateWindowRange(thread, addr, bytes)
			default:
				d.InvalidateThread(thread)
				m.InvalidateThread(thread)
			}
			if hit != modelHit || !slices.Equal(got, want) {
				t.Fatalf("sequence %d, operation %d: hit %v evicted %v, model %v %v", seq, op, hit, got, modelHit, want)
			}
			if d.Stats() != m.stats || d.Partitioned() != m.partitioned {
				t.Fatalf("sequence %d, operation %d: stats %+v, model %+v", seq, op, d.Stats(), m.stats)
			}
			lines := 0
			for si := range isa.DSBSets {
				want := m.order(si)
				if got := d.set(si); !slices.Equal(got, want) || d.usedLines(si) != m.occupied(&m.sets[si]) {
					t.Fatalf("sequence %d, operation %d: set %d holds %+v, model %+v", seq, op, si, got, want)
				}
				lines += m.occupied(&m.sets[si])
			}
			if d.TotalLines() != lines {
				t.Fatalf("sequence %d, operation %d: TotalLines %d, model %d", seq, op, d.TotalLines(), lines)
			}
		}
	}
}
