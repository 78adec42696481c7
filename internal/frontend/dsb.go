package frontend

import "repro/internal/isa"

// DSBStats counts micro-op cache events.
type DSBStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Fills      uint64
	Partitions uint64 // partition-state toggles
}

// Evicted identifies a window removed from the DSB, so the owner thread's
// LSD can be flushed (the structures are inclusive, Section IV).
type Evicted struct {
	Thread int
	Window uint64
}

// dsbEntry is one cached decode window. A window may occupy up to
// DSBLinesPerWindow ways of its set (6 micro-ops per line).
type dsbEntry struct {
	window uint64
	thread int
	lines  int
	uops   int
	lru    uint64
	valid  bool
}

// DSB models the Decoded Stream Buffer: a 32-set, 8-way cache of decoded
// 32-byte instruction windows (Section IV-B). While two hardware threads
// are active the DSB is set-partitioned — each thread indexes into half
// the sets — and repartition transitions invalidate every window whose
// index changes, the eviction mechanism behind the MT attacks (Section
// V-A).
type DSB struct {
	p Params
	// sets holds DSBWays entry slots per set, set after set (set i is
	// sets[i*DSBWays:(i+1)*DSBWays]), so the whole array is one buffer.
	// A set's entries occupy a prefix of its slots, used[i] long; line
	// occupancy is tracked per entry.
	sets        []dsbEntry
	used        []uint8
	tick        uint64
	partitioned bool
	stats       DSBStats

	// evictScratch backs the Evicted slices Fill and SetPartitioned
	// return; eviction-heavy channels call Fill every few cycles and the
	// result is consumed before the next call, so one buffer is reused.
	// Both scratch buffers are kept at length zero between calls: they
	// carry no state.
	evictScratch []Evicted
	survScratch  []dsbEntry
}

// NewDSB builds an empty DSB from p.
func NewDSB(p Params) *DSB {
	return &DSB{p: p, sets: make([]dsbEntry, p.DSBSets*p.DSBWays), used: make([]uint8, p.DSBSets)}
}

// set returns the entries of set i: the slots in use.
func (d *DSB) set(i int) []dsbEntry {
	w := d.p.DSBWays
	return d.sets[i*w : i*w+int(d.used[i])]
}

// place stores e in the first invalid entry of set i, or in its next
// unused slot.
func (d *DSB) place(i int, e dsbEntry) {
	set := d.set(i)
	for j := range set {
		if !set[j].valid {
			set[j] = e
			return
		}
	}
	d.sets[i*d.p.DSBWays+len(set)] = e
	d.used[i]++
}

// Partitioned reports whether the DSB is currently set-partitioned.
func (d *DSB) Partitioned() bool { return d.partitioned }

// Stats returns the event counters.
func (d *DSB) Stats() DSBStats { return d.stats }

// ResetStats zeroes the counters without touching contents.
func (d *DSB) ResetStats() { d.stats = DSBStats{} }

// SetIndex returns the set a window maps to for a thread under the
// current partitioning mode: addr[9:5] when the thread owns the whole
// DSB, or the low half of the index placed in the thread's half when
// partitioned (Section IV-B).
func (d *DSB) SetIndex(thread int, window uint64) int {
	if !d.partitioned {
		return int(window) & (d.p.DSBSets - 1)
	}
	half := d.p.DSBSets / 2
	return int(window)&(half-1) | thread*half
}

// Lookup reports whether the window is cached for the thread and
// refreshes its recency on a hit.
func (d *DSB) Lookup(thread int, window uint64) bool {
	d.tick++
	set := d.set(d.SetIndex(thread, window))
	for i := range set {
		if set[i].valid && set[i].thread == thread && set[i].window == window {
			set[i].lru = d.tick
			d.stats.Hits++
			return true
		}
	}
	d.stats.Misses++
	return false
}

// Contains reports residency without updating recency or counters.
func (d *DSB) Contains(thread int, window uint64) bool {
	set := d.set(d.SetIndex(thread, window))
	for i := range set {
		if set[i].valid && set[i].thread == thread && set[i].window == window {
			return true
		}
	}
	return false
}

// Fill inserts a decoded window of the given micro-op count, evicting
// least-recently-used windows until its lines fit in the set. Windows
// that exceed DSBLinesPerWindow lines are not cacheable and are dropped
// (fill fails silently; the window keeps decoding through MITE). The
// returned list names every window evicted to make room; it aliases a
// scratch buffer that is only valid until the next Fill or
// SetPartitioned call.
func (d *DSB) Fill(thread int, window uint64, uops int) []Evicted {
	lines := (uops + d.p.DSBLineUOps - 1) / d.p.DSBLineUOps
	if lines == 0 {
		lines = 1
	}
	if lines > d.p.DSBLinesPerWindow {
		return nil // not cacheable: too many micro-ops per window
	}
	if d.Contains(thread, window) {
		return nil
	}
	d.tick++
	idx := d.SetIndex(thread, window)
	set := d.set(idx)
	evicted := d.evictScratch[:0]
	for d.usedLines(set)+lines > d.p.DSBWays {
		v := d.lruVictim(set)
		if v < 0 {
			d.evictScratch = evicted[:0]
			return evicted // cannot make room (shouldn't happen)
		}
		evicted = append(evicted, Evicted{Thread: set[v].thread, Window: set[v].window})
		set[v].valid = false
		d.stats.Evictions++
	}
	// Eviction left an invalid entry or an unused slot, since every
	// valid entry holds at least one line.
	d.place(idx, dsbEntry{window: window, thread: thread, lines: lines, uops: uops, lru: d.tick, valid: true})
	d.stats.Fills++
	d.evictScratch = evicted[:0]
	return evicted
}

// TotalLines returns the number of valid cache lines resident across
// every set — the occupancy observable of the leakage contract.
func (d *DSB) TotalLines() int {
	n := 0
	for si := 0; si < d.p.DSBSets; si++ {
		n += d.usedLines(d.set(si))
	}
	return n
}

func (d *DSB) usedLines(set []dsbEntry) int {
	n := 0
	for _, e := range set {
		if e.valid {
			n += e.lines
		}
	}
	return n
}

func (d *DSB) lruVictim(set []dsbEntry) int {
	v := -1
	for i := range set {
		if set[i].valid && (v < 0 || set[i].lru < set[v].lru) {
			v = i
		}
	}
	return v
}

// SetPartitioned switches the partitioning mode. Every resident window
// whose set index differs under the new mode is invalidated — the paper's
// "when the second thread becomes active, DSB becomes partitioned, which
// forces DSB evictions of micro-ops of the first thread" (Section IV-B).
// The invalidated windows are returned so the owning threads' LSDs can be
// flushed.
// The returned slice aliases the same scratch buffer as Fill's.
func (d *DSB) SetPartitioned(on bool) []Evicted {
	if d.partitioned == on {
		return nil
	}
	surviving := d.survScratch[:0]
	evicted := d.evictScratch[:0]
	for si := 0; si < d.p.DSBSets; si++ {
		set := d.set(si)
		for _, e := range set {
			if !e.valid {
				continue
			}
			d.partitioned = on
			newIdx := d.SetIndex(e.thread, e.window)
			d.partitioned = !on
			if newIdx == si {
				surviving = append(surviving, e)
			} else {
				evicted = append(evicted, Evicted{Thread: e.thread, Window: e.window})
				d.stats.Evictions++
			}
		}
		clear(set)
		d.used[si] = 0
	}
	d.partitioned = on
	d.stats.Partitions++
	for _, e := range surviving {
		d.place(d.SetIndex(e.thread, e.window), e)
	}
	d.survScratch = surviving[:0]
	d.evictScratch = evicted[:0]
	return evicted
}

// InvalidateWindowRange drops a thread's decoded windows overlapping
// [addr, addr+bytes): real instruction-cache invalidations (clflush of
// code, SMC detection) drop the corresponding micro-op cache entries too.
func (d *DSB) InvalidateWindowRange(thread int, addr uint64, bytes uint64) {
	first := isa.Window(addr)
	last := isa.Window(addr + bytes - 1)
	for i := range d.sets {
		e := &d.sets[i]
		if e.valid && e.thread == thread && e.window >= first && e.window <= last {
			e.valid = false
			d.stats.Evictions++
		}
	}
}

// InvalidateThread drops every window owned by a thread (used by enclave
// exit modelling and tests).
func (d *DSB) InvalidateThread(thread int) {
	for i := range d.sets {
		if e := &d.sets[i]; e.valid && e.thread == thread {
			e.valid = false
			d.stats.Evictions++
		}
	}
}

// OccupiedLines returns how many of a set's 8 ways hold valid lines under
// the current mode, for the set that window would map to for thread.
func (d *DSB) OccupiedLines(thread int, window uint64) int {
	return d.usedLines(d.set(d.SetIndex(thread, window)))
}

// WindowOf is a convenience re-export of the ISA window function.
func WindowOf(addr uint64) uint64 { return isa.Window(addr) }
