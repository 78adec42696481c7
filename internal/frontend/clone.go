package frontend

import (
	"math"
	"slices"

	"repro/internal/backend"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
)

// This file implements the steady-loop skip's side of the frontend: a
// snapshot of the state one thread's loop reads and writes, the check
// that a later iteration boundary recurs to it, and the fast-forward
// that repeats the verified period. A frontend is a value, so copying
// one is an assignment, and so is each part of a snapshot.

// Stream returns thread t's in-flight instruction stream, the cursor the
// frontend delivers from, or nil once the stream has run out: after the
// frontend tried to read past its end.
func (f *Frontend) Stream(t int) *isa.SeqStream {
	if !f.thr[t].live {
		return nil
	}
	return &f.thr[t].stream
}

// LoopSnap is a copy of the frontend state one hardware thread's loop
// reads and writes, taken by Snapshot at an iteration boundary while
// the sibling thread is idle. An idle sibling's predictor, detector,
// IDQ, counters and fetch state do not change, so they are not copied.
// From Snapshot until AdvanceLoop or StopLog the frontend also logs,
// in order, every float addend it adds to the thread's counters, so a
// verified period can be replayed bit for bit.
type LoopSnap struct {
	t     int
	dsb   DSB
	l1i   cache.Cache
	bpu   branch.Predictor
	lsd   LSD
	align AlignTracker
	sw    switchBuffer
	idq   backend.IDQ
	thr   fthread // its stream holds the loop's position
	ctr   ThreadCounters

	// lcpAdds and swAdds are the addends to Ctr[t].LCPStallCycles and
	// Ctr[t].SwitchCycles since the snapshot.
	lcpAdds, swAdds []float64
}

// Snapshot copies the state thread t's loop can change into s and
// starts the addend log.
func (f *Frontend) Snapshot(s *LoopSnap, t int) {
	s.t = t
	s.dsb = f.DSB
	s.l1i = f.L1I
	s.bpu = f.BPU[t]
	s.lsd = f.lsd[t]
	s.align = f.align
	s.sw = f.sw
	s.idq = f.idq[t]
	s.thr = f.thr[t]
	s.ctr = f.Ctr[t]
	if s.lcpAdds == nil {
		// Sized once, so that logging a period seldom grows them.
		s.lcpAdds, s.swAdds = make([]float64, 0, 1024), make([]float64, 0, 1024)
	}
	s.lcpAdds, s.swAdds = s.lcpAdds[:0], s.swAdds[:0]
	f.log = s
}

// StopLog ends the addend log Snapshot started.
func (f *Frontend) StopLog() { f.log = nil }

// LoopRecurs reports whether thread s.t's loop, some whole iterations
// after Snapshot(s) and with only its own delivery in between, has left
// the frontend in a state no later cycle can tell from s's: every
// structure the loop reads holds the same contents, recency compared by
// order, the IDQ as its whole ring read from the head, and the stall
// debt bit for bit. Only counters and recency ticks have moved.
func (f *Frontend) LoopRecurs(s *LoopSnap) bool {
	t := s.t
	th := &f.thr[t]
	if !th.live || !th.stream.Recurs(&s.thr.stream) || !th.recurs(&s.thr) {
		return false
	}
	reps, _ := th.stream.Progress()
	prevReps, _ := s.thr.stream.Progress()
	return f.lsd[t].recurs(&s.lsd, reps-prevReps) && f.align == s.align &&
		f.idq[t].Recurs(&s.idq) && f.BPU[t].Recurs(&s.bpu) && f.sw.recurs(&s.sw) &&
		f.DSB.recurs(&s.dsb) && f.L1I.Recurs(&s.l1i)
}

// AdvanceLoop moves a frontend for which LoopRecurs(s) holds forward by
// k more periods, each repeating the change since Snapshot(s): counters
// and recency ticks move k more times as far, the stream runs k times
// as many iterations again, and the logged addends are added once more,
// in order, k times over. It ends the log.
func (f *Frontend) AdvanceLoop(s *LoopSnap, k uint64) {
	t := s.t
	f.log = nil
	f.DSB.advance(&s.dsb, k)
	f.L1I.Advance(&s.l1i, k)
	f.BPU[t].Advance(&s.bpu, k)
	f.lsd[t].advance(&s.lsd, k)
	f.sw.advance(&s.sw, k)
	f.idq[t].Advance(&s.idq, k)
	f.thr[t].stream.Advance(&s.thr.stream, int(k))
	f.Ctr[t].advance(&s.ctr, k, s.lcpAdds, s.swAdds)
}

// recurs compares th with prev field by field, the stall debt bit for
// bit; the stream is compared separately.
func (th *fthread) recurs(prev *fthread) bool {
	return th.cur == prev.cur && th.hasCur == prev.hasCur &&
		math.Float64bits(th.stall) == math.Float64bits(prev.stall) &&
		th.lastSrc == prev.lastSrc && th.prevLCP == prev.prevLCP &&
		th.fillActive == prev.fillActive && th.fillWindow == prev.fillWindow &&
		th.fillUOps == prev.fillUOps && th.lastFetchLine == prev.lastFetchLine
}

// recurs reports whether d holds prev's entries in the same slots, the
// same partitioning, and the valid entries of every set in the same
// recency order, which is all replacement reads.
func (d *DSB) recurs(prev *DSB) bool {
	if d.partitioned != prev.partitioned || d.used != prev.used {
		return false
	}
	for si := range isa.DSBSets {
		a, b := d.set(si), prev.set(si)
		same := true
		for i := range a {
			x, y := a[i], b[i]
			if x.window != y.window || x.thread != y.thread || x.lines != y.lines ||
				x.uops != y.uops || x.valid != y.valid {
				return false
			}
			same = same && x.lru == y.lru
		}
		if same {
			continue
		}
		for i := range a {
			for j := i + 1; j < len(a); j++ {
				if a[i].valid && a[j].valid && (a[i].lru < a[j].lru) != (b[i].lru < b[j].lru) {
					return false
				}
			}
		}
	}
	return true
}

// advance moves a DSB that recurs from prev forward by k more
// repetitions of the lookups and fills since prev: every recency tick
// written since prev, and the tick counter, moves by k times the ticks
// that passed, and the statistics grow by k more times their growth.
func (d *DSB) advance(prev *DSB, k uint64) {
	n := k * (d.tick - prev.tick)
	for i := range d.sets {
		if d.sets[i].lru > prev.tick {
			d.sets[i].lru += n
		}
	}
	d.tick += n
	d.stats.Hits += k * (d.stats.Hits - prev.stats.Hits)
	d.stats.Misses += k * (d.stats.Misses - prev.stats.Misses)
	d.stats.Evictions += k * (d.stats.Evictions - prev.stats.Evictions)
	d.stats.Fills += k * (d.stats.Fills - prev.stats.Fills)
	d.stats.Partitions += k * (d.stats.Partitions - prev.stats.Partitions)
}

// recurs reports whether l, iters loop iterations after its copy prev,
// tracks or streams the same loop the same way. The stability count
// only matters up to the lock threshold: past it on both sides it may
// have grown by exactly one per iteration.
func (l *LSD) recurs(prev *LSD, iters int) bool {
	return l.enabled == prev.enabled && l.head == prev.head && l.tracking == prev.tracking &&
		l.uops == prev.uops && l.crossings == prev.crossings && l.lastSig == prev.lastSig &&
		l.locked == prev.locked && l.lockedSig == prev.lockedSig &&
		slices.Equal(l.windows[:l.nwin], prev.windows[:prev.nwin]) &&
		slices.Equal(l.lockedWindows[:l.nlocked], prev.lockedWindows[:prev.nlocked]) &&
		(l.stable == prev.stable ||
			prev.stable >= l.p.LSDLockIterations && l.stable-prev.stable == iters)
}

// advance moves a detector that recurs from prev forward by k more
// repetitions of the change since prev.
func (l *LSD) advance(prev *LSD, k uint64) {
	l.stable += int(k) * (l.stable - prev.stable)
	l.locks += k * (l.locks - prev.locks)
	l.flushes += k * (l.flushes - prev.flushes)
}

// recurs reports whether b holds prev's transition points and counts.
func (b *switchBuffer) recurs(prev *switchBuffer) bool {
	return b.addrs == prev.addrs && b.counts == prev.counts
}

// advance grows b's statistics by k more times their growth since prev.
func (b *switchBuffer) advance(prev *switchBuffer, k uint64) {
	b.stats.Hits += k * (b.stats.Hits - prev.stats.Hits)
	b.stats.Learns += k * (b.stats.Learns - prev.stats.Learns)
	b.stats.Conflicts += k * (b.stats.Conflicts - prev.stats.Conflicts)
	b.stats.Inserts += k * (b.stats.Inserts - prev.stats.Inserts)
}
