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
// 32-byte instruction windows (Section IV-B), isa.DSBSets by isa.DSBWays.
// While two hardware threads are active the DSB is set-partitioned —
// each thread indexes into half the sets — and repartition transitions
// invalidate every window whose index changes, the eviction mechanism
// behind the MT attacks (Section V-A). Its entries are held inline, so a
// DSB is a value.
type DSB struct {
	p Params
	// sets holds DSBWays entry slots per set, set after set (set i is
	// sets[i*DSBWays:(i+1)*DSBWays]). A set's entries occupy a prefix of
	// its slots, used[i] long; line occupancy is tracked per entry.
	sets [isa.DSBSets * isa.DSBWays]dsbEntry
	used [isa.DSBSets]uint8
	// lines counts the valid entries' lines across every set, kept up
	// to date as entries are placed and invalidated.
	lines       int
	tick        uint64
	partitioned bool
	stats       DSBStats
}

// NewDSB builds an empty DSB from p.
func NewDSB(p Params) DSB { return DSB{p: p} }

// set returns the entries of set i: the slots in use.
func (d *DSB) set(i int) []dsbEntry {
	return d.sets[i*isa.DSBWays : i*isa.DSBWays+int(d.used[i])]
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
	d.sets[i*isa.DSBWays+len(set)] = e
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
	return setIndex(thread, window, d.partitioned)
}

// setIndex is SetIndex under the given partitioning mode.
func setIndex(thread int, window uint64, partitioned bool) int {
	if !partitioned {
		return int(window) & (isa.DSBSets - 1)
	}
	const half = isa.DSBSets / 2
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
// (fill fails silently; the window keeps decoding through MITE). It
// appends every window evicted to make room, at most DSBWays of them,
// to evicted and returns the extended slice.
func (d *DSB) Fill(thread int, window uint64, uops int, evicted []Evicted) []Evicted {
	lines := (uops + d.p.DSBLineUOps - 1) / d.p.DSBLineUOps
	if lines == 0 {
		lines = 1
	}
	if lines > d.p.DSBLinesPerWindow {
		return evicted // not cacheable: too many micro-ops per window
	}
	if d.Contains(thread, window) {
		return evicted
	}
	d.tick++
	idx := d.SetIndex(thread, window)
	set := d.set(idx)
	for d.usedLines(set)+lines > isa.DSBWays {
		v := d.lruVictim(set)
		if v < 0 {
			return evicted // cannot make room (shouldn't happen)
		}
		evicted = append(evicted, Evicted{Thread: set[v].thread, Window: set[v].window})
		d.invalidate(&set[v])
	}
	// Eviction left an invalid entry or an unused slot, since every
	// valid entry holds at least one line.
	d.place(idx, dsbEntry{window: window, thread: thread, lines: lines, uops: uops, lru: d.tick, valid: true})
	d.lines += lines
	d.stats.Fills++
	return evicted
}

// invalidate drops a valid entry, counting an eviction.
func (d *DSB) invalidate(e *dsbEntry) {
	e.valid = false
	d.lines -= e.lines
	d.stats.Evictions++
}

// TotalLines returns the number of valid cache lines resident across
// every set — the occupancy observable of the leakage contract.
func (d *DSB) TotalLines() int { return d.lines }

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
// The survivors of each set keep their order at the front of its slots.
// The invalidated windows are appended to evicted, so the owning
// threads' LSDs can be flushed, and the extended slice is returned.
func (d *DSB) SetPartitioned(on bool, evicted []Evicted) []Evicted {
	if d.partitioned == on {
		return evicted
	}
	for si := range isa.DSBSets {
		set := d.set(si)
		kept := 0
		for _, e := range set {
			switch {
			case !e.valid:
			case setIndex(e.thread, e.window, on) == si:
				set[kept] = e
				kept++
			default:
				evicted = append(evicted, Evicted{Thread: e.thread, Window: e.window})
				d.lines -= e.lines
				d.stats.Evictions++
			}
		}
		clear(set[kept:])
		d.used[si] = uint8(kept)
	}
	d.partitioned = on
	d.stats.Partitions++
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
			d.invalidate(e)
		}
	}
}

// InvalidateThread drops every window owned by a thread (used by enclave
// exit modelling and tests).
func (d *DSB) InvalidateThread(thread int) {
	for i := range d.sets {
		if e := &d.sets[i]; e.valid && e.thread == thread {
			d.invalidate(e)
		}
	}
}

// OccupiedLines returns how many of a set's 8 ways hold valid lines under
// the current mode, for the set that window would map to for thread.
func (d *DSB) OccupiedLines(thread int, window uint64) int {
	return d.usedLines(d.set(d.SetIndex(thread, window)))
}
