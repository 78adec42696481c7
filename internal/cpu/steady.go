package cpu

import (
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/isa"
)

// The steady-loop skip. Most stepped cycles in the paper's slow
// channels are one hardware thread repeating a loop while its sibling
// idles, and the machine state at the loop's iteration boundaries soon
// repeats. Step is deterministic, so once the state at one boundary
// equals the state some whole iterations earlier, in everything a later
// cycle can read, every further period does exactly what the verified
// one did. The run loops then apply that period's change k more times
// instead of stepping it: integer counters and recency ticks move k
// times as far, and the float accumulators (package energy, LCP stall
// and switch-penalty cycles) are left with the bits of adding the
// period's recorded addends again, in order, k times over: fsum.Repeat
// adds whole periods in closed form, and the meter computes the span's
// last RAPL publication on the cycle stepping would publish it. Every
// simulated value stays bit-identical to stepping.
//
// The same detector covers two threads that both run loops, as the
// fingerprinting channel's attacker and victim do (Figures 11 and 12).
// It watches the loop with the longer body, and a boundary of it counts
// as a recurrence only if both threads' loops are at their snapshot
// positions and every part of the core recurs, the MITE fetch hold
// included, over an even number of cycles: the fetch grant and the
// retire priority alternate every cycle. A skip then repeats the period
// on both threads and stops two iterations before either loop ends. A
// lone thread's loop is the case with an idle sibling, whose state
// neither the loop nor the skip touches.
//
// Detection state lives for one RunCycles or RunUntilIdle call: callers
// read RAPL, reset counters and enqueue tasks between calls, and a
// snapshot is compared only with boundaries its own call stepped to.

// Thresholds of the skip, sized from its cost on a Gold 6226 core (2-CPU
// Intel Xeon host): a lone thread's snapshot takes about 2 µs and a full
// compare 5 to 8 µs, the time of 20 and of 50 to 80 stepped cycles, and
// a two-thread snapshot copies a third more; a failing compare usually
// stops at its first fields, the loops' positions, in about 10 ns. Among
// thresholds of 1024, 4096 and 16384 cycles, 4096 ran the full-space
// sweep fastest; 16384 misses most SGX sender loops.
const (
	// loopMinSkip is the fewest cycles a skip must be able to cover
	// before a snapshot is taken.
	loopMinSkip = 4096
	// loopMaxWindow is the most loop iterations one snapshot is compared
	// against. Each snapshot is compared at every boundary of a window
	// that doubles from one iteration (Brent's cycle finding); past the
	// limit the detector leaves the loop to plain stepping. A loop of
	// one instruction needs a window of 256: its state recurs only once
	// it has rewritten every slot of the 128-slot IDQ ring.
	loopMaxWindow = 256
	// loopMaxPeriod is the most cycles one snapshot records.
	loopMaxPeriod = 1 << 16
)

// loopSkips counts the skips taken, for tests.
var loopSkips atomic.Uint64

// loopSnap is the core state the looping threads can change, copied at
// a boundary of the watched loop, plus the energy of every cycle
// stepped since.
type loopSnap struct {
	fe       frontend.LoopSnap
	l1d      cache.Cache
	be       backend.Backend
	cycle    uint64
	lastBoth uint64
	miteHold int
	iter     [2]int    // each loop's repetitions
	prev     [4]uint64 // prevLSD, prevDSB, prevMITE, prevStall
	energy   []float64
}

// loopDetector is one run loop's detection state.
type loopDetector struct {
	cur [2]*Task // the tasks the state below was derived for
	// loops holds each thread's stream, held by the frontend, while the
	// threads with a task all run one: one thread beside an idle
	// sibling, or both. Its entries are nil otherwise and for an idle
	// thread.
	loops [2]*isa.SeqStream
	t     int    // the watched thread, at whose loop's boundaries the state is compared
	iter  [2]int // each loop's repetitions at the last boundary
	at    uint64 // cycle of the last boundary
	seen  int    // boundaries seen since the detector started on the loops

	snap   *loopSnap // the snapshot under comparison, or nil
	since  int       // boundaries since the snapshot
	window int       // boundaries the snapshot is compared at
}

// step runs after each cycle a run loop steps, given the energy the
// cycle accrued; no later cycle of the call may pass limit.
func (d *loopDetector) step(c *Core, energy float64, limit uint64) {
	if d.cur != c.cur {
		d.retarget(c)
	}
	loop := d.loops[d.t]
	if loop == nil {
		return
	}
	if d.snap != nil && !d.record(c, energy) {
		return
	}
	if iter, _ := loop.Progress(); iter != d.iter[d.t] {
		d.boundary(c, limit)
	}
}

// retarget starts over after a task was dispatched or completed. It
// watches a lone thread's loop or, when both threads run loops, the one
// with the longer body, whose boundaries come less often.
func (d *loopDetector) retarget(c *Core) {
	d.disarm(c)
	d.cur, d.loops, d.seen, d.window = c.cur, [2]*isa.SeqStream{}, 0, 1
	var loops [2]*isa.SeqStream
	for t, task := range c.cur {
		if task != nil {
			if loops[t] = c.FE.Stream(t); loops[t] == nil {
				return
			}
		}
	}
	switch {
	case loops[0] == nil:
		d.t = 1
	case loops[1] != nil && loops[1].BodyLen() > loops[0].BodyLen():
		d.t = 1
	default:
		d.t = 0
	}
	d.loops = loops
	d.iter, d.at = d.progress(), c.cycle
}

// both reports whether both threads run loops.
func (d *loopDetector) both() bool { return d.loops[0] != nil && d.loops[1] != nil }

// progress returns each loop's repetitions.
func (d *loopDetector) progress() [2]int {
	var iter [2]int
	for t, s := range d.loops {
		if s != nil {
			iter[t], _ = s.Progress()
		}
	}
	return iter
}

// record appends the energy of the cycle just stepped to the snapshot.
// It gives up on the loops, and reports false, once the period outgrows
// loopMaxPeriod.
func (d *loopDetector) record(c *Core, energy float64) bool {
	s := d.snap
	if len(s.energy) == loopMaxPeriod {
		d.disarm(c)
		d.loops = [2]*isa.SeqStream{}
		return false
	}
	s.energy = append(s.energy, energy)
	return true
}

// boundary handles the first cycle of an iteration of the watched loop:
// compare the state with the snapshot and skip on a match, or take a
// new snapshot.
func (d *loopDetector) boundary(c *Core, limit uint64) {
	perIter := c.cycle - d.at
	prev := d.iter
	d.iter, d.at = d.progress(), c.cycle
	d.seen++
	if d.snap != nil {
		d.since++
		if d.recurs(c) {
			// The skip lands on a later boundary of the watched loop.
			d.skip(c, limit)
			d.disarm(c)
			d.iter, d.at = d.progress(), c.cycle
			return
		}
		if d.since < d.window {
			return
		}
		d.window *= 2
	}
	d.disarm(c)
	if d.window > loopMaxWindow {
		d.loops = [2]*isa.SeqStream{}
		return
	}
	// The first boundary ends an iteration the detector did not see
	// start, so its time is not used.
	if d.seen > 1 && d.worth(c, perIter, prev, limit) {
		d.arm(c)
	}
}

// worth reports whether a snapshot taken now could pay off: an idle
// sibling has nothing queued or buffered, a lone thread has no DSB
// partition revert pending, and whole periods could skip at least
// loopMinSkip cycles before either loop's last two iterations and
// before limit. A loop's iterations are timed from the watched one's
// last, perIter cycles, over the repetitions the loop made in it since
// prev.
func (d *loopDetector) worth(c *Core, perIter uint64, prev [2]int, limit uint64) bool {
	span := limit - c.cycle
	for t, s := range d.loops {
		if s == nil {
			if c.Busy(t) || c.FE.IDQLen(t) != 0 {
				return false
			}
			continue
		}
		if c.FE.Stream(t) != s {
			return false
		}
		iter, iters := s.Progress()
		left := iters - 2 - iter
		if left <= 0 {
			return false
		}
		span = min(span, uint64(left)*perIter/uint64(max(iter-prev[t], 1)))
	}
	if !d.both() && c.Model.HyperThreading && !c.Model.StaticDSBPartition && c.FE.DSB.Partitioned() {
		return false
	}
	return span >= loopMinSkip
}

// arm snapshots the core at the current boundary.
func (d *loopDetector) arm(c *Core) {
	if cap(c.snap) == 0 {
		// Sized once, so that recording a period seldom grows it.
		c.snap = []loopSnap{{energy: make([]float64, 0, loopMinSkip)}}
	}
	c.snap = c.snap[:1]
	s := &c.snap[0]
	c.FE.Snapshot(&s.fe, [2]bool{d.loops[0] != nil, d.loops[1] != nil})
	s.l1d = c.L1D
	s.be = c.BE
	s.cycle, s.lastBoth, s.miteHold, s.iter = c.cycle, c.lastBoth, c.miteHold, d.iter
	s.prev = [4]uint64{c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall}
	s.energy = s.energy[:0]
	d.snap, d.since = s, 0
}

// disarm drops the snapshot, leaving the core's scratch at length zero.
func (d *loopDetector) disarm(c *Core) {
	if d.snap != nil {
		c.FE.StopLog()
		c.snap = c.snap[:0]
		d.snap = nil
	}
}

// recurs reports whether the core, some whole iterations of the watched
// loop after the snapshot, is in a state no later cycle can tell from
// the snapshot's. Only the looping threads ran in between, so an idle
// sibling's state, the task queues, the TSC and the RNG are unchanged,
// and the MITE fetch hold, which only a two-thread cycle reads or
// writes, must match. A lone thread's retirement reads no backend
// state; with both threads looping, the fetch grant and the retire
// priority alternate every cycle, so the period must be even.
func (d *loopDetector) recurs(c *Core) bool {
	s := d.snap
	if d.both() && (c.cycle-s.cycle)&1 != 0 {
		return false
	}
	return c.miteHold == s.miteHold && c.FE.LoopRecurs(&s.fe) && c.L1D.Recurs(&s.l1d)
}

// skip applies the verified period k more times: as many whole periods
// as fit before either loop's last two iterations and before limit.
// While both threads run, Step moves lastBoth to every cycle, so it
// moves with the cycle count.
func (d *loopDetector) skip(c *Core, limit uint64) {
	s := d.snap
	cycles := c.cycle - s.cycle
	k := (limit - c.cycle) / cycles
	for t, loop := range d.loops {
		if loop != nil {
			iter, iters := loop.Progress()
			k = min(k, uint64(max(iters-2-iter, 0)/(iter-s.iter[t])))
		}
	}
	if k == 0 {
		return
	}
	c.cycle += k * cycles
	c.lastBoth += k * (c.lastBoth - s.lastBoth)
	c.prevLSD += k * (c.prevLSD - s.prev[0])
	c.prevDSB += k * (c.prevDSB - s.prev[1])
	c.prevMITE += k * (c.prevMITE - s.prev[2])
	c.prevStall += k * (c.prevStall - s.prev[3])
	c.BE.Advance(&s.be, k, cycles)
	c.L1D.Advance(&s.l1d, k)
	c.FE.AdvanceLoop(&s.fe, k)
	c.PM.Replay(s.energy, k)
	loopSkips.Add(1)
}
