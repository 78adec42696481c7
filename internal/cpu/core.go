package cpu

import (
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/timer"
)

// Task is one scheduled unit of work on a hardware thread: a dynamic
// instruction stream plus a completion callback that receives the cycle
// at which the stream began fetching and the cycle its last micro-op
// retired. Attacks build their Init/Encode/Decode steps out of Tasks and
// time them through a noisy TSC.
type Task struct {
	// Stream is the task's instructions until dispatch, which hands the
	// stream to the frontend.
	Stream isa.SeqStream
	OnDone func(start, end uint64)

	start uint64

	// A measurement task (MeasureEnqueue) adds its noisy reading to its
	// thread's sums in the core when it finishes; miteBefore is the
	// thread's MITE micro-op count at its dispatch.
	measure    bool
	miteBefore uint64
}

// Core is one simulated physical core with two SMT hardware threads.
// A core is a value: it holds its parts inline (the L1I is the
// frontend's, FE.L1I), and each thread's stream is a cursor over
// immutable instructions, so an assignment copies the whole simulator
// state but the tasks, which CopyFrom copies as well.
type Core struct {
	// The fields that hold pointers come first: the collector scans a
	// core only up to its last pointer, which skips the parts' arrays.
	Model Model
	queue [2][]*Task
	cur   [2]*Task
	// snap is the steady-loop skip's snapshot buffer, reused across run
	// loop calls and kept by a core when another is copied over it. It
	// holds a snapshot only inside a call and is kept at length zero
	// between calls, so it carries no state.
	snap []loopSnap

	FE  frontend.Frontend
	BE  backend.Backend
	L1D cache.Cache
	PM  power.Meter
	TSC timer.TSC
	R   rng.RNG

	cycle    uint64
	qhead    [2]int // next undispatched index into queue[t]
	lastBoth uint64
	miteHold int // thread holding the fetch slot an extra cycle, or -1

	// Previous totals of the frontend counters the power meter reads;
	// Step tracks per-cycle deltas of just these four scalars instead of
	// diffing two full ThreadCounters structs every cycle.
	prevLSD, prevDSB, prevMITE, prevStall uint64

	// The sum and count of each thread's finished measurement readings
	// since Measured last read them.
	measSum [2]float64
	measN   [2]int
}

// NewCore builds a core for the given model, seeded deterministically.
func NewCore(m Model, seed uint64) *Core {
	r := rng.New(seed)
	c := &Core{
		miteHold: -1,
		Model:    m,
		BE:       *backend.New(m.BE),
		PM:       *power.NewMeter(m.PW),
		TSC:      timer.NewTSC(r.Fork(1), m.TimerSigmaAbs, m.TimerSigmaRel),
		R:        *r,
	}
	c.FE.Init(m.FE, new(cache.Cache), m.LSDEnabled)
	if m.StaticDSBPartition {
		c.FE.SetPartitioned(true)
	}
	return c
}

// Cycle returns the current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Retired returns micro-ops retired on thread t since construction.
func (c *Core) Retired(t int) uint64 { return c.BE.Retired[t] }

// Enqueue schedules a stream on hardware thread t. onDone may be nil.
func (c *Core) Enqueue(t int, s isa.SeqStream, onDone func(start, end uint64)) {
	c.checkThread(t)
	c.queue[t] = append(c.queue[t], &Task{Stream: s, OnDone: onDone})
}

// checkThread panics unless t names a hardware thread this model has.
func (c *Core) checkThread(t int) {
	if t != 0 && t != 1 {
		panic(fmt.Sprintf("cpu: invalid hardware thread %d", t))
	}
	if t == 1 && !c.Model.HyperThreading {
		panic(fmt.Sprintf("cpu: %s has hyper-threading disabled", c.Model.Name))
	}
}

// Busy reports whether thread t has queued or in-flight work.
func (c *Core) Busy(t int) bool {
	return c.cur[t] != nil || c.qhead[t] < len(c.queue[t])
}

// Idle reports whether both threads are fully drained.
func (c *Core) Idle() bool { return !c.Busy(0) && !c.Busy(1) }

// Step advances the core by one cycle: task dispatch, DSB partition
// management, SMT fetch arbitration, frontend delivery, backend
// retirement, and power accrual.
func (c *Core) Step() { c.step() }

// step is Step; it returns the energy the cycle accrued, which the
// steady-loop skip records.
func (c *Core) step() float64 {
	c.cycle++

	// Dispatch queued tasks. The queue is drained by head index so the
	// backing array is reused across enqueue/dispatch cycles.
	for t := 0; t < 2; t++ {
		if c.cur[t] == nil && c.qhead[t] < len(c.queue[t]) {
			task := c.queue[t][c.qhead[t]]
			c.queue[t][c.qhead[t]] = nil
			c.qhead[t]++
			if c.qhead[t] == len(c.queue[t]) {
				c.queue[t] = c.queue[t][:0]
				c.qhead[t] = 0
			}
			task.start = c.cycle
			c.cur[t] = task
			// The frontend delivers from its own copy of the stream.
			c.FE.SetStream(t, task.Stream)
			task.Stream = isa.SeqStream{}
			if task.measure {
				task.miteBefore = c.FE.Ctr[t].UOpsMITE
			}
		}
	}

	// SMT partition management (Section IV-B): the DSB partitions while
	// both threads are active and reverts once one side has been quiet
	// for the hysteresis window. A statically partitioned DSB (the
	// Section XII defense) never transitions, so there is nothing to
	// manage — and no transition timing to leak.
	if c.Model.HyperThreading && !c.Model.StaticDSBPartition {
		if c.cur[0] != nil && c.cur[1] != nil {
			c.lastBoth = c.cycle
			c.FE.SetPartitioned(true)
		} else if c.FE.DSB.Partitioned() && c.cycle-c.lastBoth > c.Model.PartitionHysteresis {
			c.FE.SetPartitioned(false)
		}
	}

	// Fetch arbitration. A lone active thread owns every delivery slot.
	// With both threads active the slot alternates strictly — the
	// frontend-bandwidth halving behind the Section XI side channel —
	// except that a thread fetching through MITE holds the shared
	// fetch/predecode hardware for one extra slot, so MITE-heavy siblings
	// squeeze a co-runner below half bandwidth. The unslotted thread
	// still drains its private stall debt in parallel.
	both := c.cur[0] != nil && c.cur[1] != nil
	grant := -1
	switch {
	case both && c.miteHold >= 0:
		grant = c.miteHold
		c.miteHold = -1
		_, _ = c.FE.DeliverCycle(grant)
	case both:
		grant = int(c.cycle & 1)
		if _, src := c.FE.DeliverCycle(grant); src == frontend.SrcMITE {
			c.miteHold = grant
		}
	case c.cur[0] != nil:
		grant = 0
		c.FE.DeliverCycle(0)
	case c.cur[1] != nil:
		grant = 1
		c.FE.DeliverCycle(1)
	}
	if both {
		other := 1 - grant
		if c.FE.Stalled(other) {
			c.FE.DeliverCycle(other) // burns one stall cycle
		}
	}

	// Backend retirement; loads and stores touch the L1D as they execute.
	retired := c.BE.Cycle(c.FE.IDQs(), &c.L1D)

	// Package power accrual from this cycle's frontend activity. The
	// meter reads only the delivery-path micro-op and stall counters, so
	// only those four totals are delta-tracked per cycle.
	lsd := c.FE.Ctr[0].UOpsLSD + c.FE.Ctr[1].UOpsLSD
	dsb := c.FE.Ctr[0].UOpsDSB + c.FE.Ctr[1].UOpsDSB
	mite := c.FE.Ctr[0].UOpsMITE + c.FE.Ctr[1].UOpsMITE
	stall := c.FE.Ctr[0].StallCycles + c.FE.Ctr[1].StallCycles
	e := c.PM.AddCycleDelta(lsd-c.prevLSD, dsb-c.prevDSB, mite-c.prevMITE, stall-c.prevStall, retired)
	c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall = lsd, dsb, mite, stall

	// Task completion: stream fully fetched and IDQ drained.
	for t := 0; t < 2; t++ {
		if c.cur[t] != nil && c.FE.StreamDone(t) && c.FE.IDQLen(t) == 0 {
			task := c.cur[t]
			c.cur[t] = nil
			if task.OnDone != nil {
				task.OnDone(task.start, c.cycle)
			}
			if task.measure {
				mite := c.FE.Ctr[t].UOpsMITE - task.miteBefore
				c.measSum[t] += c.reading(c.cycle-task.start, c.Model.ProtocolOverheadCycles, mite)
				c.measN[t]++
			}
		}
	}
	return e
}

// reading is the noisy TSC reading of a timed step that ran for cycles
// and decoded mite micro-ops through MITE: serializing-timer noise on
// the duration plus the step's fixed overhead, and MITE jitter scaled by
// the legacy-decoded micro-op count (see Model.MITEJitterSqrtUOp).
func (c *Core) reading(cycles uint64, overhead float64, mite uint64) float64 {
	m := c.TSC.Measure(float64(cycles) + overhead)
	if mu := float64(mite); mu > 0 && c.Model.MITEJitterSqrtUOp > 0 {
		m += c.R.NormScaled(0, c.Model.MITEJitterSqrtUOp*math.Sqrt(mu))
	}
	if m < 0 {
		m = 0
	}
	return m
}

// AbortThread drops thread t's current task and queue without running
// them to completion (the OS preempting/rescheduling a workload). Pending
// completion callbacks are discarded.
func (c *Core) AbortThread(t int) {
	c.cur[t] = nil
	c.queue[t] = c.queue[t][:0]
	c.qhead[t] = 0
	c.FE.SetStream(t, isa.SeqStream{})
}

// RunCycles advances exactly n cycles. Quiet stretches are skipped in
// bulk (see quietSpan), and a lone thread's loop, or two threads' loops,
// whose state recurs is fast-forwarded by whole periods (see steady.go). A stall is stepped
// while the loop detector holds a snapshot, which records the energy of
// every cycle it is compared over. Every simulated value matches n calls
// of Step.
func (c *Core) RunCycles(n uint64) {
	end := c.cycle + min(n, ^uint64(0)-c.cycle)
	var d loopDetector
	defer d.disarm(c)
	for c.cycle < end {
		if k := c.quietSpan(end-c.cycle, d.snap == nil); k > 0 {
			c.skipQuiet(k)
			continue
		}
		d.step(c, c.step(), end)
	}
}

// Advance runs one Step or, when the next cycles are quiet (see
// quietSpan), skips as many of them as end at or before limit. The
// leakage-contract executor drives its programs through it, with limit
// at the next cycle it must see stepped to: its runaway guard's or its
// next snapshot's.
func (c *Core) Advance(limit uint64) {
	if limit > c.cycle {
		if k := c.quietSpan(limit-c.cycle, true); k > 0 {
			c.skipQuiet(k)
			return
		}
	}
	c.Step()
}

// quietSpan returns how many of the next n cycles are quiet: 0 when the
// next cycle has work to dispatch, fetch or retire. A quiet cycle has
// both IDQs empty and either no task on either thread (idle) or, when
// stalls is set, one thread whose loaded next instruction waits out a
// whole cycle of stall debt while its sibling has no task (a lone
// thread's stall). On such a cycle Step changes only the cycle count,
// the stalled thread's debt and stall counter, the backend's retire
// priority and the meter's energy, so skipQuiet applies exactly those
// changes. A span stops short of the cycle on which Step reverts the DSB
// partition, so Step performs that revert itself.
func (c *Core) quietSpan(n uint64, stalls bool) uint64 {
	if c.FE.IDQLen(0) != 0 || c.FE.IDQLen(1) != 0 {
		return 0
	}
	switch b0, b1 := c.Busy(0), c.Busy(1); {
	case b0 && b1:
		return 0
	case b0 || b1:
		t := 0
		if b1 {
			t = 1
		}
		if !stalls || c.cur[t] == nil {
			return 0 // a queued task dispatches
		}
		n = min(n, c.FE.StallSpan(t))
	}
	if c.Model.HyperThreading && !c.Model.StaticDSBPartition && c.FE.DSB.Partitioned() {
		revert := c.lastBoth + c.Model.PartitionHysteresis + 1
		if revert <= c.cycle+1 {
			return 0
		}
		n = min(n, revert-1-c.cycle)
	}
	return n
}

// skipQuiet advances k quiet cycles without stepping them.
func (c *Core) skipQuiet(k uint64) {
	var stalls uint64
	for t, task := range c.cur {
		if task != nil {
			c.FE.SkipStall(t, k)
			stalls = 1
		}
	}
	c.cycle += k
	c.prevStall += stalls * k
	c.BE.SkipIdle(k)
	c.PM.AddCycles(k, c.PM.CycleEnergy(0, 0, 0, stalls, 0))
}

// RunUntilIdle steps until both threads drain, or panics after maxCycles
// as a runaway guard. Like RunCycles it skips a lone thread's stalls and
// fast-forwards a recurring loop, never past the guard, so it panics at
// the cycle and in the state stepping would.
func (c *Core) RunUntilIdle(maxCycles uint64) {
	start := c.cycle
	limit := start + min(maxCycles, ^uint64(0)-start)
	var d loopDetector
	defer d.disarm(c)
	for !c.Idle() {
		if k := c.quietSpan(limit-c.cycle, d.snap == nil); k > 0 {
			c.skipQuiet(k)
			continue
		}
		e := c.step()
		if c.cycle-start > maxCycles {
			panic(fmt.Sprintf("cpu: RunUntilIdle exceeded %d cycles", maxCycles))
		}
		d.step(c, e, limit)
	}
}

// RunTimed enqueues a stream on thread t, runs it to completion, and
// returns the noisy TSC measurement of its duration plus the model's
// fixed protocol overhead — one timed attack step (see reading).
func (c *Core) RunTimed(t int, s isa.SeqStream) float64 {
	return c.runTimed(t, s, c.Model.ProtocolOverheadCycles)
}

// RunTimedTight is RunTimed with only the in-process rdtscp overhead
// (~60 cycles) instead of the cross-process protocol handshake: the
// timing mode of a Spectre attacker probing its own structures.
func (c *Core) RunTimedTight(t int, s isa.SeqStream) float64 {
	return c.runTimed(t, s, 60)
}

// runTimed is RunTimed with the given measurement overhead.
func (c *Core) runTimed(t int, s isa.SeqStream, overhead float64) float64 {
	var cycles uint64
	before := c.FE.Ctr[t].UOpsMITE
	// The measurement handshake (serializing rdtscp pairs, fences, loop
	// setup) occupies real time as well as appearing in the reading.
	c.RunCycles(uint64(overhead))
	c.Enqueue(t, s, func(start, end uint64) { cycles = end - start })
	c.RunUntilIdle(100_000_000)
	return c.reading(cycles, overhead, c.FE.Ctr[t].UOpsMITE-before)
}

// MeasureEnqueue schedules a stream on thread t whose duration is
// measured through the same noisy process as RunTimed, but without
// blocking: when the task completes, its reading joins thread t's sums,
// which Measured reads. MT receivers use this to take measurements while
// the sender thread runs.
func (c *Core) MeasureEnqueue(t int, s isa.SeqStream) {
	c.checkThread(t)
	c.queue[t] = append(c.queue[t], &Task{Stream: s, measure: true})
}

// Measured returns the mean of the readings thread t's measurement
// tasks have reported since the last call, or 0 if there are none, and
// clears them.
func (c *Core) Measured(t int) float64 {
	sum, n := c.measSum[t], c.measN[t]
	c.measSum[t], c.measN[t] = 0, 0
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Counters returns the frontend counters for thread t.
func (c *Core) Counters(t int) frontend.ThreadCounters { return c.FE.Ctr[t] }

// IPCWindow computes instructions-per-cycle for thread t between two
// (cycle, retired) snapshots.
type IPCWindow struct {
	Cycle   uint64
	Retired uint64
}

// Snapshot captures an IPC accounting point for thread t.
func (c *Core) Snapshot(t int) IPCWindow {
	return IPCWindow{Cycle: c.cycle, Retired: c.BE.Retired[t]}
}

// IPCSince returns the IPC for thread t since the snapshot.
func (c *Core) IPCSince(t int, w IPCWindow) float64 {
	dc := c.cycle - w.Cycle
	if dc == 0 {
		return 0
	}
	return float64(c.BE.Retired[t]-w.Retired) / float64(dc)
}
