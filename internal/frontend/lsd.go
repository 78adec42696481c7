package frontend

import "repro/internal/isa"

// LSD models the Loop Stream Detector (Section IV-A): when the same
// micro-op loop streams repeatedly and fits the detector's limits, the
// LSD replays it directly from the IDQ, shutting down the rest of the
// frontend. A loop qualifies when
//
//   - its body is at most LSDCapacityUOps micro-ops (64 on the paper's
//     machines),
//   - it touches at most LSDWindowSlots distinct 32-byte windows
//     (misaligned blocks consume two windows each, Section IV-G),
//   - it contains at most LSDMaxCrossings window-crossing instructions,
//   - and it repeats identically for LSDLockIterations iterations.
//
// The LSD is inclusive in the DSB: eviction of any body window flushes
// the lock (Section IV-F), as does a DSB repartition or a loop exit.
type LSD struct {
	p       Params
	enabled bool
	align   *AlignTracker

	// Candidate-loop tracking.
	head      uint64
	tracking  bool
	uops      int
	windows   []uint64
	crossings int
	lastSig   loopSig
	stable    int

	locked        bool
	lockedSig     loopSig
	lockedWindows []uint64

	locks   uint64
	flushes uint64
}

// loopSig summarizes one observed loop iteration for stability comparison.
type loopSig struct {
	head      uint64
	uops      int
	windows   int
	crossings int
}

// AlignTracker is the frontend's shared misalignment-tracking state. The
// paper observes that misaligned instruction blocks "generate collisions
// in the LSD" (Section IV-G) and that a sender thread's misaligned
// accesses redirect the *receiver* thread's delivery from LSD to DSB
// (Section V-B) — so the tracker is modelled as a structure shared by both
// hardware threads' detectors. Each window-crossing instruction poisons
// it; each completed fully-aligned loop iteration ages one entry out; a
// loop can only lock while the tracker is clean.
type AlignTracker struct {
	poison int
	cap    int
}

// NewAlignTracker builds a tracker that saturates at cap stale entries.
func NewAlignTracker(cap int) *AlignTracker { return &AlignTracker{cap: cap} }

// Note records one misaligned (window-crossing) instruction.
func (a *AlignTracker) Note() {
	if a.poison < a.cap {
		a.poison++
	}
}

// Decay ages out one stale entry.
func (a *AlignTracker) Decay() {
	if a.poison > 0 {
		a.poison--
	}
}

// Poisoned reports whether stale misaligned entries remain.
func (a *AlignTracker) Poisoned() bool { return a.poison > 0 }

// Level returns the current entry count (tests, experiments).
func (a *AlignTracker) Level() int { return a.poison }

// NewLSD builds a detector. enabled=false models microcode with the LSD
// fused off (Table I footnote b, Section X). The align tracker is shared
// between the two hardware threads' detectors on a core.
func NewLSD(p Params, enabled bool, align *AlignTracker) *LSD {
	if align == nil {
		align = NewAlignTracker(p.LSDPoisonCap)
	}
	return &LSD{p: p, enabled: enabled && p.LSDCapacityUOps > 0, align: align}
}

// Enabled reports whether the detector is present and active.
func (l *LSD) Enabled() bool { return l.enabled }

// Locked reports whether the LSD is currently streaming a loop.
func (l *LSD) Locked() bool { return l.locked }

// LockedHead returns the loop head address while locked.
func (l *LSD) LockedHead() uint64 { return l.head }

// Locks returns how many times the LSD took over delivery.
func (l *LSD) Locks() uint64 { return l.locks }

// Flushes returns how many times a lock (or candidate) was torn down by
// an external event.
func (l *LSD) Flushes() uint64 { return l.flushes }

// Observe feeds one delivered instruction into loop detection. dsbResident
// reports whether a window is currently held by this thread in the DSB;
// the inclusive-hierarchy requirement means a loop can only lock while its
// windows are all cached.
func (l *LSD) Observe(in isa.Inst, dsbResident func(window uint64) bool) {
	wAddr := isa.Window(in.Addr)
	wEnd := isa.Window(in.Addr + uint64(in.Len) - 1)
	crossing := wEnd != wAddr
	if crossing {
		// Misaligned instructions poison the shared alignment tracker
		// regardless of which thread executes them (Section IV-G, V-B).
		l.align.Note()
	}
	if !l.enabled || l.locked {
		return
	}
	if l.tracking {
		l.uops += int(in.UOps)
		l.noteWindow(wAddr)
		if crossing {
			l.noteWindow(wEnd)
			l.crossings++
		}
		if l.uops > l.p.LSDCapacityUOps {
			// Body outgrew the detector; give up until a new head appears.
			l.resetTracking()
		}
	}
	if in.Kind != isa.Jmp {
		return
	}
	switch {
	case in.Taken && l.tracking && in.Target == l.head:
		// Completed one full iteration of the candidate loop.
		sig := loopSig{head: l.head, uops: l.uops, windows: len(l.windows), crossings: l.crossings}
		if sig == l.lastSig {
			l.stable++
		} else {
			l.stable = 1
			l.lastSig = sig
		}
		if sig.crossings == 0 {
			// A fully-aligned qualified iteration ages the tracker.
			l.align.Decay()
		}
		if l.stable >= l.p.LSDLockIterations && l.qualifies(sig, dsbResident) {
			l.locked = true
			l.lockedSig = sig
			l.lockedWindows = append(l.lockedWindows[:0], l.windows...)
			l.locks++
		}
		l.uops, l.crossings = 0, 0
		l.windows = l.windows[:0]
	case in.Taken && in.Target < in.Addr:
		// Backward jump to a new head: start tracking a fresh candidate.
		l.head = in.Target
		l.tracking = true
		l.stable = 0
		l.lastSig = loopSig{}
		l.uops, l.crossings = 0, 0
		l.windows = l.windows[:0]
	}
}

// ObserveRun is Observe over a run of instructions in window w that
// hold uops micro-ops in all, none of them a jump and each wholly inside
// w: such instructions poison nothing, and a candidate loop only grows
// by their micro-ops and by w, as a whole run or one at a time.
func (l *LSD) ObserveRun(w uint64, uops int) {
	if !l.enabled || l.locked || !l.tracking {
		return
	}
	l.uops += uops
	l.noteWindow(w)
	if l.uops > l.p.LSDCapacityUOps {
		l.resetTracking()
	}
}

func (l *LSD) qualifies(sig loopSig, dsbResident func(window uint64) bool) bool {
	if l.align.Poisoned() {
		return false
	}
	if sig.uops > l.p.LSDCapacityUOps {
		return false
	}
	if sig.windows > l.p.LSDWindowSlots {
		return false
	}
	if sig.crossings > l.p.LSDMaxCrossings {
		return false
	}
	for _, w := range l.windows {
		if !dsbResident(w) {
			return false
		}
	}
	return true
}

func (l *LSD) noteWindow(w uint64) {
	for _, x := range l.windows {
		if x == w {
			return
		}
	}
	l.windows = append(l.windows, w)
}

func (l *LSD) resetTracking() {
	l.tracking = false
	l.stable = 0
	l.uops, l.crossings = 0, 0
	l.windows = l.windows[:0]
	l.lastSig = loopSig{}
}

// InBody reports whether a window belongs to the locked loop body. The
// delivery engine uses it to distinguish the loop's internal jumps from a
// genuine departure from the loop.
func (l *LSD) InBody(window uint64) bool {
	for _, w := range l.lockedWindows {
		if w == window {
			return true
		}
	}
	return false
}

// LoopExit tears down the lock when the back-edge falls through (branch
// mispredict at loop end, Section IV-A).
func (l *LSD) LoopExit() {
	if l.locked {
		l.locked = false
		l.flushes++
	}
	l.resetTracking()
}

// NotifyEviction flushes the lock if the evicted DSB window belongs to
// the streaming loop body (inclusive hierarchy, Section IV-F). While only
// tracking a candidate, any body-window eviction restarts detection.
func (l *LSD) NotifyEviction(window uint64) {
	if !l.enabled {
		return
	}
	if l.locked {
		if l.InBody(window) {
			l.locked = false
			l.flushes++
			l.resetTracking()
		}
		return
	}
	for _, w := range l.windows {
		if w == window {
			l.resetTracking()
			return
		}
	}
}

// Flush unconditionally drops lock and candidate state (DSB repartition,
// enclave transition).
func (l *LSD) Flush() {
	if l.locked || l.tracking {
		l.flushes++
	}
	l.locked = false
	l.resetTracking()
}
