package cache

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/rng"
)

// tickCache is a reference model of true LRU: every line carries the
// tick of its last use, a fill takes the first free way or else the way
// with the oldest tick, and a flush frees a way in place. It is the
// replacement the Cache implemented before it kept its sets in recency
// order, kept here so the ordered sets can be checked against it.
type tickCache struct {
	lines [sets * ways]tickLine
	tick  uint64
	stats Stats
}

type tickLine struct {
	tag   uint64
	valid bool
	lru   uint64 // higher = more recently used
}

func (m *tickCache) set(addr uint64) []tickLine {
	s := int(addr/lineSize) & (sets - 1)
	return m.lines[s*ways : (s+1)*ways]
}

func (m *tickCache) find(addr uint64) *tickLine {
	set, tag := m.set(addr), addr/lineSize/sets
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (m *tickCache) Access(addr uint64) bool {
	if m.Touch(addr) {
		m.stats.Hits++
		return true
	}
	set := m.set(addr)
	victim := -1
	for i := range set {
		switch {
		case victim >= 0 && !set[victim].valid:
		case !set[i].valid, victim < 0 || set[i].lru < set[victim].lru:
			victim = i
		}
	}
	m.stats.Misses++
	if set[victim].valid {
		m.stats.Evictions++
	}
	set[victim] = tickLine{tag: addr / lineSize / sets, valid: true, lru: m.tick}
	return false
}

func (m *tickCache) Probe(addr uint64) bool { return m.find(addr) != nil }

func (m *tickCache) Touch(addr uint64) bool {
	m.tick++
	l := m.find(addr)
	if l == nil {
		return false
	}
	l.lru = m.tick
	return true
}

func (m *tickCache) FlushLine(addr uint64) {
	if l := m.find(addr); l != nil {
		l.valid = false
		m.stats.Flushes++
	}
}

func (m *tickCache) FlushAll() {
	for i := range m.lines {
		if m.lines[i].valid {
			m.lines[i].valid = false
			m.stats.Flushes++
		}
	}
}

// order returns the valid tags of set s, most recently used first.
func (m *tickCache) order(s int) []uint64 {
	set := slices.Clone(m.lines[s*ways : (s+1)*ways])
	set = slices.DeleteFunc(set, func(l tickLine) bool { return !l.valid })
	slices.SortFunc(set, func(a, b tickLine) int { return cmp.Compare(b.lru, a.lru) })
	tags := make([]uint64, len(set))
	for i, l := range set {
		tags[i] = l.tag
	}
	return tags
}

// TestCacheMatchesTickLRU drives a Cache and the tick-stamped model
// through random sequences of accesses, probes, touches and flushes over
// a few sets and a dozen tags each, so that sets fill, thrash and empty
// again. After every operation the two must return the same, count the
// same statistics and hold the same lines in every set, in the same
// recency order.
func TestCacheMatchesTickLRU(t *testing.T) {
	r := rng.New(5)
	for seq := range 40 {
		c, m := l1(), &tickCache{}
		for op := range 500 {
			addr := uint64(r.Intn(12))*sets*lineSize + uint64([]int{0, 1, 63}[r.Intn(3)])*lineSize + uint64(r.Intn(lineSize))
			var got, want bool
			switch k := r.Intn(20); {
			case k < 10:
				got, want = c.Access(addr), m.Access(addr)
			case k < 13:
				got, want = c.Probe(addr), m.Probe(addr)
			case k < 16:
				got, want = c.Touch(addr), m.Touch(addr)
			case k < 19:
				c.FlushLine(addr)
				m.FlushLine(addr)
			default:
				c.FlushAll()
				m.FlushAll()
			}
			if got != want {
				t.Fatalf("sequence %d, operation %d on %#x: got %v, model %v", seq, op, addr, got, want)
			}
			if c.Stats() != m.stats {
				t.Fatalf("sequence %d, operation %d: stats %+v, model %+v", seq, op, c.Stats(), m.stats)
			}
			for _, s := range []int{0, 1, 63} {
				if got, want := c.set(s), m.order(s); !slices.Equal(got, want) || c.OccupiedWays(uint64(s)*lineSize) != len(want) {
					t.Fatalf("sequence %d, operation %d: set %d holds %v, model %v", seq, op, s, got, want)
				}
			}
		}
	}
}
