package frontend

import "testing"

// Entry-boundary semantics: the leakage fuzzer uses switch-buffer
// hit/conflict/insert events as coverage features, so the behaviour of
// one entry under one and under two transition points is pinned here
// before anything leans on it. 0x2000 and 0x3000 share an entry.

func TestSwitchBufferSizeOne(t *testing.T) {
	var b switchBuffer
	a1, a2 := uint64(0x2000), uint64(0x3000)

	// A single stable transition point learns through the lone entry.
	b.cost(a1)
	b.cost(a1)
	if !b.cost(a1) {
		t.Fatal("single entry did not learn a stable transition point")
	}
	want := SwitchStats{Hits: 1, Learns: 1, Inserts: 1}
	if b.stats != want {
		t.Fatalf("stats after learning: %+v, want %+v", b.stats, want)
	}

	// A second address on the same entry: alternation evicts on every
	// occurrence, so nothing ever learns again.
	for i := 0; i < 6; i++ {
		if b.cost(a2) || b.cost(a1) {
			t.Fatal("alternating transition points learned through a size-1 buffer")
		}
	}
	if b.stats.Conflicts != 12 {
		t.Fatalf("conflicts = %d, want 12", b.stats.Conflicts)
	}
}

func TestSwitchBufferConflictEvictRelearn(t *testing.T) {
	var b switchBuffer
	a1, a2 := uint64(0x2000), uint64(0x3000)

	// Learn a1, evict it with a2, then relearn a1 from scratch: the
	// counter must restart at 1, not resume at the learned threshold.
	b.cost(a1)
	b.cost(a1)
	if !b.cost(a1) {
		t.Fatal("a1 did not learn")
	}
	b.cost(a2) // conflict-evicts a1
	if b.cost(a1) {
		t.Fatal("a1 still learned after conflict eviction")
	}
	if b.cost(a1) {
		t.Fatal("a1 learned after only two post-eviction occurrences")
	}
	if !b.cost(a1) {
		t.Fatal("a1 did not relearn after the full cycle")
	}
	want := SwitchStats{Hits: 2, Learns: 2, Conflicts: 2, Inserts: 3}
	if b.stats != want {
		t.Fatalf("stats: %+v, want %+v", b.stats, want)
	}
}

func TestSwitchBufferStatsSurviveCloneAndReset(t *testing.T) {
	var b switchBuffer
	b.cost(0x1000)
	b.cost(0x1000)
	b.cost(0x1000)
	c := b
	if c.stats != b.stats {
		t.Fatalf("copied stats %+v != original %+v", c.stats, b.stats)
	}
	// The copy's counters advance independently.
	c.cost(0x1000)
	if c.stats == b.stats {
		t.Fatal("copied stats still coupled to the original")
	}
	b.reset()
	if b.stats != (SwitchStats{}) {
		t.Fatalf("reset kept stats: %+v", b.stats)
	}
}
