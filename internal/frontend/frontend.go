package frontend

import (
	"repro/internal/backend"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
)

// Frontend is the per-core instruction delivery engine: two hardware
// threads share one DSB, one MITE decode pipeline, and one L1I cache,
// while each owns a private LSD and branch predictor — the sharing
// structure of Figure 1 that the paper's attacks exploit.
//
// Each simulated cycle the core arbiter grants one thread a delivery
// slot; DeliverCycle then streams micro-ops from whichever path serves
// the thread's current fetch address, charging the path-dependent stalls
// (LCP predecode stalls, DSB<->MITE switch penalties, LSD replay bubbles,
// mispredict redirects) that constitute the timing side channel.
//
// A Frontend is a value: it holds every part inline and each thread's
// stream as a cursor over immutable instructions, so assigning one
// frontend to another copies its whole state.
type Frontend struct {
	// The fields that hold pointers come first: the collector scans a
	// frontend only up to its last pointer, which skips the arrays.
	thr [2]fthread
	// log, while non-nil, records the float counter addends of a loop
	// period being verified (see Snapshot).
	log *LoopSnap

	P Params
	// Ctr holds per-thread event counters.
	Ctr [2]ThreadCounters

	DSB   DSB
	L1I   cache.Cache
	BPU   [2]branch.Predictor
	lsd   [2]LSD
	align AlignTracker
	sw    switchBuffer
	idq   [2]backend.IDQ
}

type fthread struct {
	stream isa.SeqStream
	// live is set while stream is installed and has not run out.
	live   bool
	cur    isa.Inst
	hasCur bool

	// stall is fractional stall debt in cycles; whole cycles are consumed
	// one per DeliverCycle call.
	stall   float64
	lastSrc Source
	prevLCP bool

	// MITE window-fill tracking.
	fillActive bool
	fillWindow uint64
	fillUOps   int

	lastFetchLine uint64
}

// New builds a frontend whose L1I starts as a copy of l1i. lsdEnabled
// controls whether the Loop Stream Detector participates (Section X's
// microcode patches disable it).
func New(p Params, l1i *cache.Cache, lsdEnabled bool) Frontend {
	var f Frontend
	f.Init(p, l1i, lsdEnabled)
	return f
}

// Init makes f, a zero Frontend, the frontend New builds, in place, as a
// core does with the frontend it holds.
func (f *Frontend) Init(p Params, l1i *cache.Cache, lsdEnabled bool) {
	f.P = p
	f.DSB.p = p
	f.L1I = *l1i
	f.align = NewAlignTracker(p.LSDPoisonCap)
	for t := range 2 {
		f.BPU[t] = *branch.New()
		f.lsd[t] = NewLSD(p, t, lsdEnabled)
		f.idq[t] = backend.NewIDQ(p.IDQCapacity)
	}
}

// Align exposes the shared misalignment tracker (tests, experiments).
func (f *Frontend) Align() *AlignTracker { return &f.align }

// DrainTransients models the pipeline serialization of a task or
// context switch on thread t: fractional stall debt, the last delivery
// source, prefix-decode and window-fill tracking all die with the
// in-flight pipeline. Persistent structures — DSB, L1I, LSD, alignment
// tracker, switch buffer, branch predictor — survive untouched; they are
// the storage the paper's channels live in. The leakage contract drains
// transients at phase boundaries so counterexamples implicate surviving
// state, not leftover stall debt.
func (f *Frontend) DrainTransients(t int) {
	th := &f.thr[t]
	th.stall = 0
	th.lastSrc = SrcNone
	th.prevLCP = false
	th.fillActive = false
	th.fillWindow = 0
	th.fillUOps = 0
	th.lastFetchLine = 0
}

// SwitchBufferStats returns the switch buffer's event counters. The
// buffer is shared by both hardware threads, like the hardware it models.
func (f *Frontend) SwitchBufferStats() SwitchStats { return f.sw.stats }

// IDQLen returns the micro-ops buffered for thread t.
func (f *Frontend) IDQLen(t int) int { return f.idq[t].Len() }

// PopUOp removes one micro-op from thread t's IDQ for retirement.
func (f *Frontend) PopUOp(t int) (isa.Inst, bool) { return f.idq[t].Pop() }

// IDQs returns both threads' IDQs, the queues the backend retires from.
func (f *Frontend) IDQs() *[2]backend.IDQ { return &f.idq }

// LSDFor exposes a thread's loop stream detector (tests, experiments).
func (f *Frontend) LSDFor(t int) *LSD { return &f.lsd[t] }

// SetStream installs the dynamic instruction stream thread t executes
// next. Any previous stream is discarded.
func (f *Frontend) SetStream(t int, s isa.SeqStream) {
	f.thr[t].stream = s
	f.thr[t].live = true
	f.thr[t].hasCur = false
	f.thr[t].lastFetchLine = ^uint64(0)
}

// StreamDone reports whether thread t has consumed its entire stream.
func (f *Frontend) StreamDone(t int) bool {
	th := &f.thr[t]
	if th.hasCur {
		return false
	}
	return !f.load(t)
}

// Stalled reports whether thread t owes stall cycles.
func (f *Frontend) Stalled(t int) bool { return f.thr[t].stall >= 1 }

// StallSpan returns how many calls of DeliverCycle(t) in a row would do
// nothing but burn a cycle of stall debt: the whole cycles thread t
// owes, or 0 unless its next instruction is already loaded (loading it
// reads the stream).
func (f *Frontend) StallSpan(t int) uint64 {
	th := &f.thr[t]
	if !th.hasCur || th.stall < 1 {
		return 0
	}
	return uint64(th.stall)
}

// SkipStall burns k of thread t's stall cycles, k at most StallSpan(t),
// exactly as k calls of DeliverCycle(t) would. Each of those calls
// subtracts 1 from a debt of at least 1, which is exact in floating
// point, so one subtraction of k lands on the same bits.
func (f *Frontend) SkipStall(t int, k uint64) {
	f.thr[t].stall -= float64(k)
	f.Ctr[t].StallCycles += k
}

// SetPartitioned toggles SMT set-partitioning of the DSB. Repartitioning
// invalidates relocated windows and flushes both LSDs (Section IV-B).
func (f *Frontend) SetPartitioned(on bool) {
	if f.DSB.Partitioned() == on {
		return
	}
	var buf [isa.DSBSets * isa.DSBWays]Evicted
	for _, e := range f.DSB.SetPartitioned(on, buf[:0]) {
		f.lsd[e.Thread].NotifyEviction(e.Window)
	}
	f.lsd[0].Flush()
	f.lsd[1].Flush()
	f.thr[0].lastSrc = SrcNone
	f.thr[1].lastSrc = SrcNone
}

// ResetCounters zeroes both threads' counters.
func (f *Frontend) ResetCounters() {
	f.Ctr[0] = ThreadCounters{}
	f.Ctr[1] = ThreadCounters{}
}

// DeliverCycle delivers micro-ops for thread t into its IDQ, bounded by
// the queue's free space, and returns how many were delivered and from
// which path. A stalled or idle thread delivers nothing.
func (f *Frontend) DeliverCycle(t int) (int, Source) {
	th := &f.thr[t]
	if !th.hasCur && !f.load(t) {
		f.Ctr[t].IdleCycles++
		return 0, SrcNone
	}
	if th.stall >= 1 {
		th.stall--
		f.Ctr[t].StallCycles++
		return 0, SrcNone
	}
	budget := f.idq[t].Free()
	if budget <= 0 {
		return 0, SrcNone
	}
	if f.lsd[t].Locked() {
		return f.deliverLSD(t, budget)
	}
	if !th.cur.HasLCP() {
		w := isa.Window(th.cur.Addr)
		if f.DSB.Lookup(t, w) {
			return f.deliverDSB(t, budget, w)
		}
	}
	return f.deliverMITE(t, budget)
}

// load pulls the next instruction from the stream into cur.
func (f *Frontend) load(t int) bool {
	th := &f.thr[t]
	if th.hasCur {
		return true
	}
	in, ok := th.stream.Next()
	if !ok {
		// Past the end: the pending window fill completes. Later calls
		// find no fill pending.
		th.live = false
		f.finalizeFill(t)
		return false
	}
	th.cur = in
	th.hasCur = true
	return true
}

// advance consumes the current instruction: IDQ insertion, loop
// detection, branch resolution, and loading the successor. It returns the
// consumed instruction.
func (f *Frontend) advance(t int) isa.Inst {
	th := &f.thr[t]
	in := th.cur
	th.hasCur = false
	th.prevLCP = in.HasLCP()
	f.idq[t].Push(in)
	f.lsd[t].Observe(in, &f.align, &f.DSB)
	if in.Kind == isa.Pause {
		th.stall += f.P.PauseCycles
	}
	if in.IsBranch() {
		if f.BPU[t].Resolve(in.Addr, in.Taken, in.Target) {
			th.stall += f.P.MispredictPenalty
			f.Ctr[t].Mispredicts++
		}
	}
	f.load(t)
	return in
}

// plain reports whether in is an instruction DSB and LSD delivery only
// queue and observe: no jump, pause or LCP instruction, and wholly inside
// window w.
func plain(in *isa.Inst, w uint64) bool {
	return in.Kind != isa.Jmp && in.Kind != isa.Pause && in.Kind != isa.AddLCP &&
		isa.Window(in.Addr) == w && isa.Window(in.Addr+uint64(in.Len)-1) == w
}

// run delivers thread t's loaded instruction, just admitted into a DSB
// or LSD delivery of width micro-ops after n others, in one step with
// the plain instructions its stream shows next in the same window, as
// many as still fit: the IDQ pushes in order, one LSD.ObserveRun, one
// skip of the stream and the load of the successor, which is all
// advance would do for each of them. It returns the micro-ops delivered
// so far, or false and delivers nothing when the loaded instruction is
// not plain or its stream shows nothing ahead.
func (f *Frontend) run(t, n, width int) (int, bool) {
	th := &f.thr[t]
	w := isa.Window(th.cur.Addr)
	ahead := th.stream.Ahead()
	if len(ahead) == 0 || !plain(&th.cur, w) {
		return n, false
	}
	start := n
	n += int(th.cur.UOps)
	k := 0
	for ; k < len(ahead); k++ {
		in := &ahead[k]
		if n >= width || n > 0 && n+int(in.UOps) > width || !plain(in, w) {
			break
		}
		n += int(in.UOps)
	}
	q := &f.idq[t]
	q.Push(th.cur)
	for i := range ahead[:k] {
		q.Push(ahead[i])
	}
	f.lsd[t].ObserveRun(w, n-start)
	th.prevLCP = false
	if k < len(ahead) {
		// The successor is in view: load it as Next would yield it.
		th.cur = ahead[k]
		th.stream.Skip(k + 1)
	} else {
		th.stream.Skip(k)
		th.hasCur = false
		if !f.load(t) && k > 0 {
			// The stream ran out: cur keeps the last instruction
			// delivered, as it does after advance.
			th.cur = ahead[k-1]
		}
	}
	return n, true
}

// switchTo charges the DSB<->MITE switch penalty when the delivery path
// changes at addr. Transition points the switch buffer has learned pay
// only the residual (Section IV-H).
func (f *Frontend) switchTo(t int, src Source, addr uint64) {
	th := &f.thr[t]
	prev := th.lastSrc
	th.lastSrc = src
	if prev == src || prev == SrcNone || prev == SrcLSD {
		return
	}
	if (prev == SrcDSB && src == SrcMITE) || (prev == SrcMITE && src == SrcDSB) {
		pen := f.P.SwitchPenalty
		if f.sw.cost(addr) {
			pen = f.P.SwitchResidual
		}
		th.stall += pen * f.P.SwitchOverlapCharge
		f.Ctr[t].SwitchCycles += pen
		f.Ctr[t].SwitchCount++
		if f.log != nil {
			f.log.swAdds = append(f.log.swAdds, pen)
		}
	}
}

// deliverLSD streams the locked loop. Every taken back-edge inserts the
// replay bubble that makes jump-dense loops slower from the LSD than from
// the DSB; a fall-through back-edge is the loop exit and tears the lock
// down.
func (f *Frontend) deliverLSD(t, budget int) (int, Source) {
	th := &f.thr[t]
	th.lastSrc = SrcLSD
	width := min(f.P.DeliverWidth, budget)
	n := 0
	for n < width && th.hasCur {
		in := th.cur
		if n > 0 && n+int(in.UOps) > width {
			break
		}
		if !f.lsd[t].InBody(isa.Window(in.Addr)) {
			// Fetch left the locked loop body without a branch (stream
			// deviation): the LSD cannot supply it.
			f.lsd[t].LoopExit()
			break
		}
		if m, ok := f.run(t, n, width); ok {
			n = m
			continue
		}
		th.hasCur = false
		th.prevLCP = in.HasLCP()
		f.idq[t].Push(in)
		n += int(in.UOps)
		if in.Kind == isa.Pause {
			th.stall += f.P.PauseCycles
		}
		if in.IsBranch() {
			if f.BPU[t].Resolve(in.Addr, in.Taken, in.Target) {
				th.stall += f.P.MispredictPenalty
				f.Ctr[t].Mispredicts++
			}
			if !in.Taken || !f.lsd[t].InBody(isa.Window(in.Target)) {
				// Loop exit: fall-through or a departure from the body.
				f.lsd[t].LoopExit()
				f.load(t)
				break
			}
			// Body-internal taken jump: the LSD replays with a bubble.
			th.stall += f.P.LSDJumpBubble
			f.load(t)
			break
		}
		f.load(t)
	}
	f.Ctr[t].UOpsLSD += uint64(n)
	f.Ctr[t].DeliveryCycles++
	return n, SrcLSD
}

// deliverDSB streams decoded micro-ops for one window from the micro-op
// cache.
func (f *Frontend) deliverDSB(t, budget int, w uint64) (int, Source) {
	th := &f.thr[t]
	f.switchTo(t, SrcDSB, th.cur.Addr)
	width := min(f.P.DeliverWidth, budget)
	n := 0
	for n < width && th.hasCur {
		in := th.cur
		if in.HasLCP() || isa.Window(in.Addr) != w {
			break
		}
		if n > 0 && n+int(in.UOps) > width {
			break
		}
		if m, ok := f.run(t, n, width); ok {
			n = m
			continue
		}
		n += int(in.UOps)
		if isa.Window(in.End()-1) != w {
			// Window-crossing micro-ops span two DSB lines (Section IV-G).
			th.stall += f.P.DSBCrossPenalty
		}
		f.advance(t)
		if in.IsBranch() && in.Taken {
			break
		}
	}
	f.Ctr[t].UOpsDSB += uint64(n)
	f.Ctr[t].DeliveryCycles++
	return n, SrcDSB
}

// deliverMITE fetches, predecodes, and decodes through the legacy path:
// fetch-bandwidth limited, LCP predecode stalls, and DSB fills of every
// completed cacheable window.
func (f *Frontend) deliverMITE(t, budget int) (int, Source) {
	th := &f.thr[t]
	f.switchTo(t, SrcMITE, th.cur.Addr)
	width := min(f.P.DecodeWidth, budget)
	n, bytes := 0, 0
	for n < width && th.hasCur {
		in := th.cur
		bytes += int(in.Len)
		if n > 0 && (bytes > f.P.FetchBytes || n+int(in.UOps) > width) {
			break
		}
		// One L1I access per 64-byte fetch line.
		line := in.Addr &^ 63
		if line != th.lastFetchLine {
			th.lastFetchLine = line
			if !f.L1I.Access(in.Addr) {
				th.stall += f.P.L1IMissPenalty
				f.Ctr[t].L1IMisses++
			}
		}
		if in.HasLCP() {
			count := f.P.LCPStallIsolated
			charge := count * f.P.LCPOverlapCharge
			if th.prevLCP {
				// Consecutive LCPs decode strictly sequentially
				// (Section IV-H observation (b)): the full stall lands on
				// the critical path.
				count = f.P.LCPStallChained
				charge = count
			}
			th.stall += charge
			f.Ctr[t].LCPStallCycles += count
			if f.log != nil {
				f.log.lcpAdds = append(f.log.lcpAdds, count)
			}
		}
		n += int(in.UOps)
		f.trackFill(t, in)
		f.advance(t)
		if in.IsBranch() && in.Taken {
			th.stall += f.P.MITERedirectBubble
			f.finalizeFill(t)
			break
		}
		if in.HasLCP() {
			// LCP instructions decode alone (Section IV-H).
			break
		}
	}
	f.Ctr[t].UOpsMITE += uint64(n)
	f.Ctr[t].DeliveryCycles++
	return n, SrcMITE
}

// trackFill accumulates the micro-ops MITE decodes for the current
// 32-byte window so the window can be installed in the DSB when complete.
func (f *Frontend) trackFill(t int, in isa.Inst) {
	th := &f.thr[t]
	w := isa.Window(in.Addr)
	if !th.fillActive || th.fillWindow != w {
		f.finalizeFill(t)
		th.fillActive = true
		th.fillWindow = w
		th.fillUOps = 0
	}
	// Only non-LCP micro-ops are cached: an LCP-prefixed instruction must
	// keep decoding through MITE every time it executes (Section IV-H
	// observation (a)), which is what forces the DSB-to-MITE switches of
	// the mixed-issue pattern.
	if !in.HasLCP() {
		th.fillUOps += int(in.UOps)
	}
}

// finalizeFill installs the tracked window's cacheable micro-ops into the
// DSB.
func (f *Frontend) finalizeFill(t int) {
	th := &f.thr[t]
	if !th.fillActive {
		return
	}
	th.fillActive = false
	if th.fillUOps == 0 {
		return
	}
	var buf [isa.DSBWays]Evicted
	for _, e := range f.DSB.Fill(t, th.fillWindow, th.fillUOps, buf[:0]) {
		f.lsd[e.Thread].NotifyEviction(e.Window)
	}
}
