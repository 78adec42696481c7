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
	uops   int32
	thread uint8
	lines  uint8
}

// DSB models the Decoded Stream Buffer: a 32-set, 8-way cache of decoded
// 32-byte instruction windows (Section IV-B), isa.DSBSets by isa.DSBWays,
// with LRU replacement. While two hardware threads are active the DSB is
// set-partitioned — each thread indexes into half the sets — and
// repartition transitions invalidate every window whose index changes,
// the eviction mechanism behind the MT attacks (Section V-A). Each set
// holds its windows in recency order, so two DSBs that replace alike
// hold equal entries. Its entries are held inline, so a DSB is a value.
type DSB struct {
	p Params
	// sets holds DSBWays entry slots per set, set after set (set i is
	// sets[i*DSBWays:(i+1)*DSBWays]). A set's entries fill the first
	// used[i] of its slots, most recently used first, and its other
	// slots are zero; line occupancy is tracked per entry.
	sets [isa.DSBSets * isa.DSBWays]dsbEntry
	used [isa.DSBSets]uint8
	// lines counts the entries' lines across every set, kept up to date
	// as entries are placed and evicted.
	lines       int
	partitioned bool
	stats       DSBStats
}

// NewDSB builds an empty DSB from p.
func NewDSB(p Params) DSB { return DSB{p: p} }

// set returns the entries of set i, most recently used first.
func (d *DSB) set(i int) []dsbEntry {
	return d.sets[i*isa.DSBWays : i*isa.DSBWays+int(d.used[i])]
}

// find returns the position of thread's window in set si, or -1.
func (d *DSB) find(si, thread int, window uint64) int {
	for i, e := range d.set(si) {
		if e.window == window && int(e.thread) == thread {
			return i
		}
	}
	return -1
}

// evict removes entry i of set si, closing the gap, counts an eviction
// and returns the window removed.
func (d *DSB) evict(si, i int) Evicted {
	set := d.set(si)
	e := set[i]
	copy(set[i:], set[i+1:])
	set[len(set)-1] = dsbEntry{}
	d.used[si]--
	d.lines -= int(e.lines)
	d.stats.Evictions++
	return Evicted{Thread: int(e.thread), Window: e.window}
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

// Lookup reports whether the window is cached for the thread and makes
// it the most recently used of its set on a hit.
func (d *DSB) Lookup(thread int, window uint64) bool {
	si := d.SetIndex(thread, window)
	i := d.find(si, thread, window)
	if i < 0 {
		d.stats.Misses++
		return false
	}
	d.toFront(si, i)
	d.stats.Hits++
	return true
}

// toFront moves entry i of set si to the front, keeping the others'
// order.
func (d *DSB) toFront(si, i int) {
	set := d.set(si)
	e := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = e
}

// Contains reports residency without updating recency or counters.
func (d *DSB) Contains(thread int, window uint64) bool {
	return d.find(d.SetIndex(thread, window), thread, window) >= 0
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
	si := d.SetIndex(thread, window)
	for d.usedLines(si)+lines > isa.DSBWays {
		n := int(d.used[si])
		if n == 0 {
			return evicted // cannot make room (shouldn't happen)
		}
		evicted = append(evicted, d.evict(si, n-1))
	}
	// Every entry holds at least one line, so eviction left a free slot.
	n := int(d.used[si])
	d.sets[si*isa.DSBWays+n] = dsbEntry{window: window, uops: int32(uops), thread: uint8(thread), lines: uint8(lines)}
	d.used[si]++
	d.toFront(si, n)
	d.lines += lines
	d.stats.Fills++
	return evicted
}

// TotalLines returns the number of valid cache lines resident across
// every set — the occupancy observable of the leakage contract.
func (d *DSB) TotalLines() int { return d.lines }

// usedLines returns the lines set si's entries occupy.
func (d *DSB) usedLines(si int) int {
	n := 0
	for _, e := range d.set(si) {
		n += int(e.lines)
	}
	return n
}

// SetPartitioned switches the partitioning mode. Every resident window
// whose set index differs under the new mode is invalidated — the paper's
// "when the second thread becomes active, DSB becomes partitioned, which
// forces DSB evictions of micro-ops of the first thread" (Section IV-B).
// The survivors of each set keep their recency order. The invalidated
// windows are appended to evicted, so the owning threads' LSDs can be
// flushed, and the extended slice is returned.
func (d *DSB) SetPartitioned(on bool, evicted []Evicted) []Evicted {
	if d.partitioned == on {
		return evicted
	}
	for si := range isa.DSBSets {
		for i := 0; i < int(d.used[si]); {
			if e := d.set(si)[i]; setIndex(int(e.thread), e.window, on) != si {
				evicted = append(evicted, d.evict(si, i))
			} else {
				i++
			}
		}
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
	d.invalidate(thread, func(w uint64) bool { return w >= first && w <= last })
}

// InvalidateThread drops every window owned by a thread (used by enclave
// exit modelling and tests).
func (d *DSB) InvalidateThread(thread int) {
	d.invalidate(thread, func(uint64) bool { return true })
}

// invalidate drops each of thread's windows that gone reports true for.
func (d *DSB) invalidate(thread int, gone func(window uint64) bool) {
	for si := range isa.DSBSets {
		for i := 0; i < int(d.used[si]); {
			if e := d.set(si)[i]; int(e.thread) == thread && gone(e.window) {
				d.evict(si, i)
			} else {
				i++
			}
		}
	}
}

// OccupiedLines returns how many of a set's 8 ways hold valid lines under
// the current mode, for the set that window would map to for thread.
func (d *DSB) OccupiedLines(thread int, window uint64) int {
	return d.usedLines(d.SetIndex(thread, window))
}
