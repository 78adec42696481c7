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
	Stream isa.Stream
	// OnStart fires when the task is dispatched to the frontend.
	OnStart func()
	OnDone  func(start, end uint64)

	start uint64

	// Measurement tasks (MeasureEnqueue) carry their noisy-measurement
	// state in the task itself instead of per-call closures, keeping the
	// per-measurement allocation down to the task and its stream.
	measCb     func(measured float64)
	miteBefore uint64
}

// Core is one simulated physical core with two SMT hardware threads.
type Core struct {
	Model Model
	FE    *frontend.Frontend
	BE    *backend.Backend
	L1I   *cache.Cache
	L1D   *cache.Cache
	PM    *power.Meter
	TSC   *timer.TSC
	R     *rng.RNG

	cycle      uint64
	queue      [2][]*Task
	qhead      [2]int // next undispatched index into queue[t]
	cur        [2]*Task
	lastActive [2]uint64
	lastBoth   uint64
	miteHold   int // thread holding the fetch slot an extra cycle, or -1

	// memHook is the L1D wiring passed to the backend every cycle, built
	// once so Step does not rebuild the closure.
	memHook backend.MemHook

	// Previous totals of the frontend counters the power meter reads;
	// Step tracks per-cycle deltas of just these four scalars instead of
	// diffing two full ThreadCounters structs every cycle.
	prevLSD, prevDSB, prevMITE, prevStall uint64
}

// NewCore builds a core for the given model, seeded deterministically.
func NewCore(m Model, seed uint64) *Core {
	r := rng.New(seed)
	l1i := cache.New(cache.L1Config)
	l1d := cache.New(cache.L1Config)
	c := &Core{
		miteHold: -1,
		Model:    m,
		FE:       frontend.New(m.FE, l1i, m.LSDEnabled),
		BE:       backend.New(m.BE),
		L1I:      l1i,
		L1D:      l1d,
		PM:       power.NewMeter(m.PW),
		TSC:      timer.NewTSC(r.Fork(1), m.TimerSigmaAbs, m.TimerSigmaRel),
		R:        r,
	}
	if m.StaticDSBPartition {
		c.FE.SetPartitioned(true)
	}
	c.memHook = func(t int, in isa.Inst) { c.L1D.Access(in.MemAddr) }
	return c
}

// Cycle returns the current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Retired returns micro-ops retired on thread t since construction.
func (c *Core) Retired(t int) uint64 { return c.BE.Retired[t] }

// Enqueue schedules a stream on hardware thread t. onDone may be nil.
func (c *Core) Enqueue(t int, s isa.Stream, onDone func(start, end uint64)) {
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
func (c *Core) Step() {
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
			c.FE.SetStream(t, task.Stream)
			if task.OnStart != nil {
				task.OnStart()
			}
			if task.measCb != nil {
				task.miteBefore = c.FE.Ctr[t].UOpsMITE
			}
		}
		if c.cur[t] != nil {
			c.lastActive[t] = c.cycle
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
	retired := c.BE.Cycle(c.FE.IDQs(), c.memHook)

	// Package power accrual from this cycle's frontend activity. The
	// meter reads only the delivery-path micro-op and stall counters, so
	// only those four totals are delta-tracked per cycle.
	lsd := c.FE.Ctr[0].UOpsLSD + c.FE.Ctr[1].UOpsLSD
	dsb := c.FE.Ctr[0].UOpsDSB + c.FE.Ctr[1].UOpsDSB
	mite := c.FE.Ctr[0].UOpsMITE + c.FE.Ctr[1].UOpsMITE
	stall := c.FE.Ctr[0].StallCycles + c.FE.Ctr[1].StallCycles
	c.PM.AddCycleDelta(lsd-c.prevLSD, dsb-c.prevDSB, mite-c.prevMITE, stall-c.prevStall, retired)
	c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall = lsd, dsb, mite, stall

	// Task completion: stream fully fetched and IDQ drained.
	for t := 0; t < 2; t++ {
		if c.cur[t] != nil && c.FE.StreamDone(t) && c.FE.IDQLen(t) == 0 {
			task := c.cur[t]
			c.cur[t] = nil
			if task.OnDone != nil {
				task.OnDone(task.start, c.cycle)
			}
			if task.measCb != nil {
				c.finishMeasure(t, task)
			}
		}
	}
}

// finishMeasure reports a measurement task's noisy timing, exactly as
// RunTimed would: serializing-timer noise on the duration plus protocol
// overhead, and MITE jitter scaled by the legacy-decoded micro-op count.
func (c *Core) finishMeasure(t int, task *Task) {
	m := c.TSC.Measure(float64(c.cycle-task.start) + c.Model.ProtocolOverheadCycles)
	if mu := float64(c.FE.Ctr[t].UOpsMITE - task.miteBefore); mu > 0 && c.Model.MITEJitterSqrtUOp > 0 {
		m += c.R.NormScaled(0, c.Model.MITEJitterSqrtUOp*math.Sqrt(mu))
	}
	if m < 0 {
		m = 0
	}
	task.measCb(m)
}

// AbortThread drops thread t's current task and queue without running
// them to completion (the OS preempting/rescheduling a workload). Pending
// completion callbacks are discarded.
func (c *Core) AbortThread(t int) {
	c.cur[t] = nil
	c.queue[t] = c.queue[t][:0]
	c.qhead[t] = 0
	c.FE.SetStream(t, nil)
}

// RunCycles advances exactly n cycles. Idle stretches, with no current
// or queued task on either thread and both IDQs empty, are skipped in
// bulk: on such a cycle Step changes only the cycle count, the backend's
// retire priority and the meter's static energy, so skipIdle applies
// exactly those changes. Every simulated value matches n calls of Step.
func (c *Core) RunCycles(n uint64) {
	for n > 0 {
		k := c.idleSpan(n)
		if k == 0 {
			c.Step()
			k = 1
		} else {
			c.skipIdle(k)
		}
		n -= k
	}
}

// idleSpan returns how many of the next n cycles can be skipped as idle:
// 0 when the next cycle has work to dispatch, fetch or retire. A span
// stops short of the cycle on which Step reverts the DSB partition, so
// Step performs that revert itself.
func (c *Core) idleSpan(n uint64) uint64 {
	if c.Busy(0) || c.Busy(1) || c.FE.IDQLen(0) != 0 || c.FE.IDQLen(1) != 0 {
		return 0
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

// skipIdle advances k idle cycles without stepping them.
func (c *Core) skipIdle(k uint64) {
	c.cycle += k
	c.BE.SkipIdle(k)
	c.PM.AddIdleCycles(k)
}

// RunUntilIdle steps until both threads drain, or panics after maxCycles
// as a runaway guard.
func (c *Core) RunUntilIdle(maxCycles uint64) {
	start := c.cycle
	for !c.Idle() {
		c.Step()
		if c.cycle-start > maxCycles {
			panic(fmt.Sprintf("cpu: RunUntilIdle exceeded %d cycles", maxCycles))
		}
	}
}

// RunTimed enqueues a stream on thread t, runs it to completion, and
// returns the noisy TSC measurement of its duration plus the model's
// fixed protocol overhead — one timed attack step. Steps that decoded
// through MITE pick up extra jitter proportional to the legacy-decoded
// micro-op count (see Model.MITEJitterPerUOp).
func (c *Core) RunTimed(t int, s isa.Stream) float64 {
	var dur float64
	before := c.FE.Ctr[t].UOpsMITE
	// The measurement handshake (serializing rdtscp pairs, fences, loop
	// setup) occupies real time as well as appearing in the reading.
	c.RunCycles(uint64(c.Model.ProtocolOverheadCycles))
	c.Enqueue(t, s, func(start, end uint64) { dur = float64(end - start) })
	c.RunUntilIdle(100_000_000)
	miteUOps := float64(c.FE.Ctr[t].UOpsMITE - before)
	m := c.TSC.Measure(dur + c.Model.ProtocolOverheadCycles)
	if miteUOps > 0 && c.Model.MITEJitterSqrtUOp > 0 {
		m += c.R.NormScaled(0, c.Model.MITEJitterSqrtUOp*math.Sqrt(miteUOps))
	}
	if m < 0 {
		m = 0
	}
	return m
}

// RunTimedTight is RunTimed with only the in-process rdtscp overhead
// (~60 cycles) instead of the cross-process protocol handshake: the
// timing mode of a Spectre attacker probing its own structures.
func (c *Core) RunTimedTight(t int, s isa.Stream) float64 {
	const tightOverhead = 60
	var dur float64
	before := c.FE.Ctr[t].UOpsMITE
	c.RunCycles(tightOverhead)
	c.Enqueue(t, s, func(start, end uint64) { dur = float64(end - start) })
	c.RunUntilIdle(100_000_000)
	m := c.TSC.Measure(dur + tightOverhead)
	if mu := float64(c.FE.Ctr[t].UOpsMITE - before); mu > 0 && c.Model.MITEJitterSqrtUOp > 0 {
		m += c.R.NormScaled(0, c.Model.MITEJitterSqrtUOp*math.Sqrt(mu))
	}
	if m < 0 {
		m = 0
	}
	return m
}

// MeasureEnqueue schedules a stream on thread t whose duration is
// reported through the same noisy measurement process as RunTimed, but
// without blocking: the callback fires when the task completes. MT
// receivers use this to take measurements while the sender thread runs.
func (c *Core) MeasureEnqueue(t int, s isa.Stream, cb func(measured float64)) {
	c.checkThread(t)
	c.queue[t] = append(c.queue[t], &Task{Stream: s, measCb: cb})
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
