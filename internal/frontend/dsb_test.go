package frontend

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

func newDSB() *DSB {
	d := NewDSB(DefaultParams())
	return &d
}

// windowForSet returns the window index of an aligned block in the given
// DSB set and way.
func windowForSet(set, way int) uint64 { return isa.Window(isa.AddrForSet(set, way)) }

func TestDSBFillLookup(t *testing.T) {
	d := newDSB()
	w := windowForSet(3, 0)
	if d.Lookup(0, w) {
		t.Error("cold lookup should miss")
	}
	d.Fill(0, w, 5, nil)
	if !d.Lookup(0, w) {
		t.Error("filled window should hit")
	}
	if s := d.Stats(); s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDSBEightWaysFit(t *testing.T) {
	// Figure 3: 8 one-line windows mapping to the same set co-reside.
	d := newDSB()
	for way := 0; way < 8; way++ {
		if ev := d.Fill(0, windowForSet(9, way), 5, nil); len(ev) != 0 {
			t.Fatalf("way %d fill evicted %v", way, ev)
		}
	}
	for way := 0; way < 8; way++ {
		if !d.Contains(0, windowForSet(9, way)) {
			t.Fatalf("way %d missing", way)
		}
	}
}

func TestDSBNinthWayEvicts(t *testing.T) {
	// Section IV-F: extending the chain from 8 to 9 same-set blocks
	// forces a DSB eviction.
	d := newDSB()
	for way := 0; way < 8; way++ {
		d.Fill(0, windowForSet(9, way), 5, nil)
	}
	ev := d.Fill(0, windowForSet(9, 8), 5, nil)
	if len(ev) != 1 {
		t.Fatalf("9th fill evicted %d windows, want 1", len(ev))
	}
	if ev[0].Window != windowForSet(9, 0) {
		t.Errorf("evicted window %#x, want LRU way 0", ev[0].Window)
	}
}

func TestDSBMultiLineWindow(t *testing.T) {
	// A window with 13-18 micro-ops occupies 3 of the set's 8 lines.
	d := newDSB()
	d.Fill(0, windowForSet(1, 0), 16, nil)
	if got := d.OccupiedLines(0, windowForSet(1, 0)); got != 3 {
		t.Errorf("occupied lines = %d, want 3", got)
	}
	// Three 3-line windows fill 9 > 8 lines: third fill evicts.
	d.Fill(0, windowForSet(1, 1), 16, nil)
	ev := d.Fill(0, windowForSet(1, 2), 16, nil)
	if len(ev) == 0 {
		t.Error("third 3-line window should evict")
	}
}

func TestDSBUncacheableWindow(t *testing.T) {
	// More than 18 micro-ops per window is not cacheable.
	d := newDSB()
	if ev := d.Fill(0, windowForSet(2, 0), 19, nil); ev != nil {
		t.Error("uncacheable fill should be dropped")
	}
	if d.Contains(0, windowForSet(2, 0)) {
		t.Error("uncacheable window should not be resident")
	}
}

func TestDSBPerThreadEntries(t *testing.T) {
	d := newDSB()
	w := windowForSet(4, 0)
	d.Fill(0, w, 5, nil)
	if d.Contains(1, w) {
		t.Error("thread 1 should not hit thread 0's window")
	}
}

func TestDSBPartitionIndexing(t *testing.T) {
	d := newDSB()
	w := windowForSet(20, 0) // set 20 unpartitioned
	if got := d.SetIndex(0, w); got != 20 {
		t.Errorf("unpartitioned index = %d, want 20", got)
	}
	d.SetPartitioned(true, nil)
	// Partitioned: thread 0 gets sets 0-15, thread 1 gets 16-31.
	if got := d.SetIndex(0, w); got != 4 {
		t.Errorf("thread 0 partitioned index = %d, want 4 (20 mod 16)", got)
	}
	if got := d.SetIndex(1, w); got != 20 {
		t.Errorf("thread 1 partitioned index = %d, want 20", got)
	}
}

func TestDSBPartitionEvictsRelocatedWindows(t *testing.T) {
	// Section IV-B / V-A: thread 0's windows in the upper half-set region
	// are lost when the DSB partitions; lower-half windows survive.
	d := newDSB()
	wLow := windowForSet(5, 0)   // survives for thread 0
	wHigh := windowForSet(21, 0) // relocated => invalidated
	d.Fill(0, wLow, 5, nil)
	d.Fill(0, wHigh, 5, nil)
	ev := d.SetPartitioned(true, nil)
	if !d.Contains(0, wLow) {
		t.Error("set-5 window should survive partitioning for thread 0")
	}
	if d.Contains(0, wHigh) {
		t.Error("set-21 window should be invalidated for thread 0")
	}
	found := false
	for _, e := range ev {
		if e.Window == wHigh && e.Thread == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("eviction list %v missing the relocated window", ev)
	}
}

func TestDSBUnpartitionRestoresFullIndexing(t *testing.T) {
	d := newDSB()
	d.SetPartitioned(true, nil)
	wHigh := windowForSet(21, 0)
	d.Fill(1, wHigh, 5, nil) // thread 1, partitioned set 21
	ev := d.SetPartitioned(false, nil)
	// Window 21 for thread 1: partitioned index 21, unpartitioned 21: survives.
	if !d.Contains(1, wHigh) {
		t.Errorf("thread 1 set-21 window should survive unpartitioning (evicted: %v)", ev)
	}
	if d.Partitioned() {
		t.Error("should be unpartitioned")
	}
}

func TestDSBPartitionIdempotent(t *testing.T) {
	d := newDSB()
	d.Fill(0, windowForSet(5, 0), 5, nil)
	if ev := d.SetPartitioned(false, nil); ev != nil {
		t.Error("no-op partition change should evict nothing")
	}
	if d.Stats().Partitions != 0 {
		t.Error("no-op toggle counted")
	}
}

func TestDSBPartitionedCapacityHalvesForSameIndexBlocks(t *testing.T) {
	// Under partitioning a thread still has 8 ways per set but only half
	// the sets: two address groups 16 sets apart now collide.
	d := newDSB()
	d.SetPartitioned(true, nil)
	// Sets 4 and 20 both index to thread-0 set 4 when partitioned.
	for way := 0; way < 4; way++ {
		d.Fill(0, windowForSet(4, way), 5, nil)
		d.Fill(0, windowForSet(20, way), 5, nil)
	}
	if got := d.OccupiedLines(0, windowForSet(4, 0)); got != 8 {
		t.Errorf("partitioned set occupancy = %d, want 8 (two groups collide)", got)
	}
}

func TestDSBInvalidateThread(t *testing.T) {
	d := newDSB()
	d.Fill(0, windowForSet(1, 0), 5, nil)
	d.Fill(1, windowForSet(2, 0), 5, nil)
	d.InvalidateThread(0)
	if d.Contains(0, windowForSet(1, 0)) {
		t.Error("thread 0 window should be gone")
	}
	if !d.Contains(1, windowForSet(2, 0)) {
		t.Error("thread 1 window should remain")
	}
}

// TestDSBKeepsItsLineCount drives DSBs through random sequences of
// fills, repartitions, range invalidations and thread invalidations,
// and requires TotalLines, which the DSB keeps as entries come and go,
// to equal a recount of the entries' lines in every set after each.
func TestDSBKeepsItsLineCount(t *testing.T) {
	recount := func(d *DSB) int {
		n := 0
		for si := range isa.DSBSets {
			for _, e := range d.set(si) {
				n += int(e.lines)
			}
		}
		return n
	}
	r := rng.New(11)
	for seq := 0; seq < 50; seq++ {
		d := newDSB()
		for op := 0; op < 400; op++ {
			thread := r.Intn(2)
			// Few sets and tags, so fills collide, evict and repeat.
			w := windowForSet(r.Intn(4)*9%isa.DSBSets, r.Intn(12))
			switch k := r.Intn(20); {
			case k < 14:
				d.Fill(thread, w, 1+r.Intn(20), nil) // up to four lines; past three, uncacheable
			case k < 16:
				d.SetPartitioned(r.Bool(0.5), nil)
			case k < 19:
				addr := isa.AddrForSet(r.Intn(isa.DSBSets), r.Intn(12))
				d.InvalidateWindowRange(thread, addr, uint64(1+r.Intn(4096)))
			default:
				d.InvalidateThread(thread)
			}
			if got, want := d.TotalLines(), recount(d); got != want {
				t.Fatalf("sequence %d, operation %d: TotalLines %d, recount %d", seq, op, got, want)
			}
		}
	}
}
