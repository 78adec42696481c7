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
// times as far, and the float accumulators (package energy with its
// RAPL publications, LCP stall and switch-penalty cycles) receive the
// period's recorded addends again, one at a time, in order. Every
// simulated value stays bit-identical to stepping.
//
// Detection state lives for one RunCycles or RunUntilIdle call: callers
// read RAPL, reset counters and enqueue tasks between calls, and a
// snapshot is compared only with boundaries its own call stepped to.

// Thresholds of the skip, sized from its cost on a Gold 6226 core (2-CPU
// Intel Xeon host): a snapshot takes about 2 µs and a full compare 5 to
// 8 µs, the time of 20 and of 50 to 80 stepped cycles; a failing
// compare usually stops at its first fields, in about 10 ns. Among
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

// loopSnap is the core state a lone thread's loop can change, copied at
// an iteration boundary, plus the energy of every cycle stepped since.
type loopSnap struct {
	fe     frontend.LoopSnap
	l1d    cache.Cache
	be     backend.Backend
	cycle  uint64
	iter   int
	prev   [4]uint64 // prevLSD, prevDSB, prevMITE, prevStall
	energy []float64
}

// loopDetector is one run loop's detection state.
type loopDetector struct {
	cur  [2]*Task       // the tasks the state below was derived for
	loop *isa.SeqStream // the lone thread's stream, held by the frontend, or nil
	t    int            // the lone thread
	iter int            // repetitions of its piece at the last boundary
	at   uint64         // cycle of the last boundary
	seen int            // boundaries seen since the loop started

	snap   *loopSnap // the snapshot under comparison, or nil
	since  int       // boundaries since the snapshot
	window int       // boundaries the snapshot is compared at

	// Totals at the last recorded cycle.
	last    [4]uint64
	retired uint64
}

// step runs after each cycle a run loop steps; no later cycle of the
// call may pass limit.
func (d *loopDetector) step(c *Core, limit uint64) {
	if d.cur != c.cur {
		d.retarget(c)
	}
	if d.loop == nil {
		return
	}
	if d.snap != nil && !d.record(c) {
		return
	}
	if iter, _ := d.loop.Progress(); iter != d.iter {
		d.boundary(c, iter, limit)
	}
}

// retarget starts over after a task was dispatched or completed.
func (d *loopDetector) retarget(c *Core) {
	d.disarm(c)
	d.cur, d.loop, d.seen, d.window = c.cur, nil, 0, 1
	t := 0
	switch {
	case c.cur[0] != nil && c.cur[1] == nil:
	case c.cur[0] == nil && c.cur[1] != nil:
		t = 1
	default:
		return
	}
	if s := c.FE.Stream(t); s != nil {
		d.loop, d.t = s, t
		d.iter, _ = s.Progress()
	}
}

// record appends the energy of the cycle just stepped to the snapshot,
// computed from the same activity counts Step gave the meter. It gives
// up on the loop, and reports false, once the period outgrows
// loopMaxPeriod.
func (d *loopDetector) record(c *Core) bool {
	s := d.snap
	if len(s.energy) == loopMaxPeriod {
		d.disarm(c)
		d.loop = nil
		return false
	}
	now := [4]uint64{c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall}
	retired := c.BE.Retired[0] + c.BE.Retired[1]
	s.energy = append(s.energy, c.PM.CycleEnergy(now[0]-d.last[0], now[1]-d.last[1],
		now[2]-d.last[2], now[3]-d.last[3], int(retired-d.retired)))
	d.last, d.retired = now, retired
	return true
}

// boundary handles the first cycle of loop iteration iter: compare the
// state with the snapshot and skip on a match, or take a new snapshot.
func (d *loopDetector) boundary(c *Core, iter int, limit uint64) {
	perIter := c.cycle - d.at
	d.iter, d.at = iter, c.cycle
	d.seen++
	if d.snap != nil {
		d.since++
		if c.loopRecurs(d.snap) {
			d.skip(c, limit)
			d.disarm(c)
			return
		}
		if d.since < d.window {
			return
		}
		d.window *= 2
	}
	d.disarm(c)
	if d.window > loopMaxWindow {
		d.loop = nil
		return
	}
	// The loop's first timed iteration runs cold (legacy decode, cache
	// fills) and would overstate what a skip saves, so it is not used.
	if d.seen > 2 && d.worth(c, perIter, limit) {
		d.arm(c)
	}
}

// worth reports whether a snapshot taken now could pay off: the sibling
// thread is idle with nothing queued or buffered, no DSB partition
// revert is pending, and whole periods could skip at least loopMinSkip
// cycles before the loop's last two iterations and before limit.
func (d *loopDetector) worth(c *Core, perIter, limit uint64) bool {
	o := 1 - d.t
	if c.Busy(o) || c.FE.IDQLen(o) != 0 || c.FE.Stream(d.t) != d.loop {
		return false
	}
	if c.Model.HyperThreading && !c.Model.StaticDSBPartition && c.FE.DSB.Partitioned() {
		return false
	}
	iter, iters := d.loop.Progress()
	left := iters - 2 - iter
	return left > 0 && min(uint64(left)*perIter, limit-c.cycle) >= loopMinSkip
}

// arm snapshots the core at the current boundary.
func (d *loopDetector) arm(c *Core) {
	if cap(c.snap) == 0 {
		// Sized once, so that recording a period seldom grows it.
		c.snap = []loopSnap{{energy: make([]float64, 0, loopMinSkip)}}
	}
	c.snap = c.snap[:1]
	s := &c.snap[0]
	c.FE.Snapshot(&s.fe, d.t)
	s.l1d = c.L1D
	s.be = c.BE
	s.cycle, s.iter = c.cycle, d.iter
	s.prev = [4]uint64{c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall}
	s.energy = s.energy[:0]
	d.last, d.retired = s.prev, c.BE.Retired[0]+c.BE.Retired[1]
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

// loopRecurs reports whether the core, some whole iterations after the
// snapshot s, is in a state no later cycle can tell from s's. Only the
// lone thread ran in between, so the sibling's state, the task queues,
// the TSC and the RNG are unchanged, and the backend holds no state a
// single thread's retirement reads.
func (c *Core) loopRecurs(s *loopSnap) bool {
	return c.FE.LoopRecurs(&s.fe) && c.L1D.Recurs(&s.l1d)
}

// skip applies the verified period k more times: as many whole periods
// as fit before the loop's last two iterations and before limit.
func (d *loopDetector) skip(c *Core, limit uint64) {
	s := d.snap
	_, iters := d.loop.Progress()
	per, cycles := d.iter-s.iter, c.cycle-s.cycle
	left := iters - 2 - d.iter
	if left < per {
		return
	}
	k := min(uint64(left/per), (limit-c.cycle)/cycles)
	if k == 0 {
		return
	}
	c.cycle += k * cycles
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
