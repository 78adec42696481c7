// Package contract defines the frontend leakage contract: the
// observables an attacker-visible window of execution exposes, recorded
// per retired micro-op window from the deterministic simulator. Two
// executions of the same public code diverge in their contract traces
// only if some secret-dependent microarchitectural state survived into
// them — exactly the definition of a frontend leak, and the oracle the
// coverage-guided fuzzer (internal/leakfuzz) checks candidate programs
// against. The style follows Geier et al.'s leakage-contract fuzzing:
// the contract is deliberately conservative, so a divergence is a
// counterexample worth minimizing, not yet a calibrated channel.
//
// The executor runs programs (isa.Program): pieces of loop bodies, each
// repeated a count of times, as the fuzzer writes its arms. A program of
// loops is read from its bodies and never written out instruction by
// instruction; Observe wraps a written-out instruction slice as a
// program of one piece.
package contract

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unsafe"

	"repro/internal/clonecheck"
	"repro/internal/cpu"
	"repro/internal/frontend"
	"repro/internal/isa"
)

// Params configures trace recording.
type Params struct {
	// WindowUOps is the retired-micro-op quantum per observation.
	WindowUOps int
	// MaxCycles bounds one program segment (runaway guard).
	MaxCycles uint64
}

// DefaultParams returns the contract defaults: 16-uop windows (four
// retire cycles on the modeled 4-wide machines) and a generous runaway
// budget.
func DefaultParams() Params {
	return Params{WindowUOps: 16, MaxCycles: 50_000_000}
}

// Observation is the contract's view of one retired instruction window:
// everything a frontend attacker can in principle resolve about it.
// Cycle and energy fields are deltas over the window; occupancy fields
// are absolute at window close. All values come from the deterministic
// simulator core (no TSC noise), so equality is exact.
type Observation struct {
	Cycles uint64 `json:"cycles"`
	// Energy is the package energy accrued over the window, in
	// watt-cycles (the RAPL channel's measurement surface, unquantized).
	Energy float64 `json:"energy"`

	// Delivery-path micro-op counts: which path fed the window.
	UOpsLSD  uint64 `json:"uops_lsd"`
	UOpsDSB  uint64 `json:"uops_dsb"`
	UOpsMITE uint64 `json:"uops_mite"`

	// Switch events and their cost (the decode-switch channel).
	Switches     uint64  `json:"switches"`
	SwitchCycles float64 `json:"switch_cycles"`
	SwHits       uint64  `json:"sw_hits"`
	SwConflicts  uint64  `json:"sw_conflicts"`
	SwInserts    uint64  `json:"sw_inserts"`

	// Stall accounting.
	StallCycles    uint64  `json:"stall_cycles"`
	LCPStallCycles float64 `json:"lcp_stall_cycles"`

	// Fetch-adjacent structure events.
	L1IMisses   uint64 `json:"l1i_misses"`
	Mispredicts uint64 `json:"mispredicts"`

	// Structure occupancy: DSB fill/evict activity over the window (a
	// delta, so occupancy left over from the secret phase only registers
	// when the probe actually interacts with it) and the LSD lock state
	// at window close.
	DSBLines  int  `json:"dsb_lines"`
	LSDLocked bool `json:"lsd_locked"`
}

// Trace is the contract trace of one program: its observation windows in
// order.
type Trace []Observation

// Divergence describes the first point where two traces differ.
type Divergence struct {
	Window int    `json:"window"` // -1: trace lengths differ
	Field  string `json:"field"`
	A      string `json:"a_value,omitempty"`
	B      string `json:"b_value,omitempty"`
}

func (d Divergence) String() string {
	if d.Window < 0 {
		return fmt.Sprintf("trace length: %s vs %s", d.A, d.B)
	}
	return fmt.Sprintf("window %d %s: %s vs %s", d.Window, d.Field, d.A, d.B)
}

// kind is how an observable's comparison key formats in a Divergence.
type kind uint8

const (
	kindUint  kind = iota // uint64
	kindInt               // int, stored two's complement
	kindBool              // bool, stored 0/1
	kindFloat             // quantized float64, stored as its bits
)

// field is one observable: its name, its kind, and its comparison key,
// a uint64 that two windows share exactly when the observable's values
// would print the same. Comparing keys instead of printed values keeps
// formatting out of the per-window loop; only a reported divergence is
// printed.
type field struct {
	name string
	kind kind
	key  func(o *Observation) uint64
}

// show prints a key the way fmt.Sprint prints the observable.
func (f field) show(o *Observation) string {
	k := f.key(o)
	switch f.kind {
	case kindInt:
		return strconv.FormatInt(int64(k), 10)
	case kindBool:
		return strconv.FormatBool(k != 0)
	case kindFloat:
		return fmt.Sprint(math.Float64frombits(k))
	}
	return strconv.FormatUint(k, 10)
}

// fields enumerates every observable in comparison order. The order is
// mechanism-specific first (LSD, DSB, switch) so the first diverging
// field names the leaking structure rather than the downstream timing
// symptom.
var fields = []field{
	{"uops_lsd", kindUint, func(o *Observation) uint64 { return o.UOpsLSD }},
	{"lsd_locked", kindBool, func(o *Observation) uint64 { return b2u(o.LSDLocked) }},
	{"uops_dsb", kindUint, func(o *Observation) uint64 { return o.UOpsDSB }},
	{"uops_mite", kindUint, func(o *Observation) uint64 { return o.UOpsMITE }},
	{"dsb_lines", kindInt, func(o *Observation) uint64 { return uint64(o.DSBLines) }},
	{"switches", kindUint, func(o *Observation) uint64 { return o.Switches }},
	{"switch_cycles", kindFloat, func(o *Observation) uint64 { return qbits(o.SwitchCycles) }},
	{"sw_hits", kindUint, func(o *Observation) uint64 { return o.SwHits }},
	{"sw_conflicts", kindUint, func(o *Observation) uint64 { return o.SwConflicts }},
	{"sw_inserts", kindUint, func(o *Observation) uint64 { return o.SwInserts }},
	{"lcp_stall_cycles", kindFloat, func(o *Observation) uint64 { return qbits(o.LCPStallCycles) }},
	{"l1i_misses", kindUint, func(o *Observation) uint64 { return o.L1IMisses }},
	{"mispredicts", kindUint, func(o *Observation) uint64 { return o.Mispredicts }},
	{"stall_cycles", kindUint, func(o *Observation) uint64 { return o.StallCycles }},
	{"cycles", kindUint, func(o *Observation) uint64 { return o.Cycles }},
	{"energy", kindFloat, func(o *Observation) uint64 { return qbits(o.Energy) }},
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// qbits is the comparison key of a float observable: the bits of its
// quantized value.
func qbits(v float64) uint64 { return math.Float64bits(quantize(v)) }

// quantize rounds a float observable to millicycle precision before
// comparison. The float observables are deltas of cumulative sums, so
// two arms whose prep phases accrued different totals see their probe
// deltas differ by accumulation-order noise (~1e-12 relative) even when
// the probe behaved identically; physical divergences are whole penalty
// fractions, orders of magnitude above the quantum.
func quantize(v float64) float64 {
	q := math.Round(v*1000) / 1000
	if q == 0 {
		return 0 // collapse -0
	}
	return q
}

// differing returns the set of fields, one bit per index into fields,
// whose values differ between two windows.
func differing(a, b *Observation) uint32 {
	var m uint32
	for i, f := range fields {
		if f.key(a) != f.key(b) {
			m |= 1 << i
		}
	}
	return m
}

// Compare returns the first divergence between two traces, if any.
func Compare(a, b Trace) (Divergence, bool) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if m := differing(&a[i], &b[i]); m != 0 {
			f := fields[bits.TrailingZeros32(m)]
			return Divergence{Window: i, Field: f.name, A: f.show(&a[i]), B: f.show(&b[i])}, true
		}
	}
	if len(a) != len(b) {
		return Divergence{Window: -1, Field: "windows", A: strconv.Itoa(len(a)), B: strconv.Itoa(len(b))}, true
	}
	return Divergence{}, false
}

// Executor runs programs on a private simulated core and records
// contract traces. It is fully deterministic: the TSC/noise
// paths are never touched, so two executors built with the same model
// and seed produce identical traces for identical programs — and a
// Clone mid-program replays byte-identically.
type Executor struct {
	core *cpu.Core
	p    Params
	seed uint64
	// pristine is the state NewExecutorWith built, which Reset restores;
	// taken on the first Reset.
	pristine *Snapshot

	win window // the open observation window's baselines
	tr  Trace  // the windows the phase in flight has closed
	// room is the most windows the phase in flight can close, which tr
	// is sized to once it holds any.
	room int
	// seq caches the phase's program stream once the frontend holds it;
	// nil until read looks it up.
	seq *isa.SeqStream

	// While FinishNoting runs, reads are the instruction indices still to
	// note and cycles their slots; while FinishTaking runs, takes are the
	// cycles still to snapshot at and snaps their slots.
	reads  []int
	cycles []uint64
	takes  []uint64
	snaps  []*Snapshot
}

// window is an observation window's baselines: the counters the core
// showed when it opened.
type window struct {
	retired uint64
	cycle   uint64
	energy  float64
	ctr     frontend.ThreadCounters
	sw      frontend.SwitchStats
	lines   int
}

// NewExecutor builds an executor for the model. The seed feeds the
// core's RNG; the contract path never draws from it, so any seed yields
// the same traces — it exists so fuzzing can double-check that claim.
func NewExecutor(m cpu.Model, seed uint64) *Executor {
	return NewExecutorWith(m, seed, DefaultParams())
}

// NewExecutorWith is NewExecutor with explicit contract parameters.
func NewExecutorWith(m cpu.Model, seed uint64, p Params) *Executor {
	if p.WindowUOps <= 0 {
		p.WindowUOps = DefaultParams().WindowUOps
	}
	if p.MaxCycles == 0 {
		p.MaxCycles = DefaultParams().MaxCycles
	}
	return &Executor{core: cpu.NewCore(m, seed), p: p, seed: seed}
}

// Snapshot is an executor's state frozen at a cycle boundary: a deep
// copy of its core, with the open window's baselines and the windows its
// phase has closed. A snapshot taken mid-phase keeps the frontend's
// position in the phase's program but not the program itself, which
// Restore supplies. Snapshots are immutable: Restore copies out of one,
// so any number of executors may restore the same snapshot.
type Snapshot struct {
	core  *cpu.Core
	win   window
	tr    Trace // capacity clipped, so no append writes into it
	bytes int
}

// Bytes returns the memory the snapshot holds: its core and its trace's
// backing array.
func (s *Snapshot) Bytes() int { return s.bytes }

// Snapshot freezes the executor's state. Take it between phases, or
// mid-phase once the phase has stepped; a phase just started has its
// program still queued, where the snapshot cannot detach it.
func (e *Executor) Snapshot() *Snapshot {
	c := e.core.Clone()
	if s, ok := c.FE.Stream(0).(*isa.SeqStream); ok {
		s.Retarget(nil) // Restore supplies the program
	}
	return &Snapshot{
		core:  c,
		win:   e.win,
		tr:    e.tr[:len(e.tr):len(e.tr)],
		bytes: clonecheck.Size(c) + cap(e.tr)*int(unsafe.Sizeof(Observation{})),
	}
}

// Restore puts the executor in the state s froze. For a snapshot taken
// mid-phase, prog is the phase's program: it must begin with the
// instructions the frontend had read, and the phase goes on with the
// rest of it. Between phases prog is unused.
func (e *Executor) Restore(s *Snapshot, prog isa.Program) {
	e.core.CopyFrom(s.core)
	e.win, e.tr, e.seq, e.room = s.win, s.tr, nil, e.windows(prog)
	if st, ok := e.core.FE.Stream(0).(*isa.SeqStream); ok {
		st.Retarget(prog)
	}
}

// Reset restores the executor to its state at construction, in place:
// the core's state is overwritten with a pristine core's, reusing its
// buffers, so a sequence of programs can each run from the same machine
// state as on a fresh executor, without building one. The next
// observations are byte-identical to a fresh executor's.
func (e *Executor) Reset() {
	if e.pristine == nil {
		e.pristine = &Snapshot{core: cpu.NewCore(e.core.Model, e.seed)}
	}
	e.Restore(e.pristine, nil)
}

// Core exposes the underlying core (tests, coverage features).
func (e *Executor) Core() *cpu.Core { return e.core }

// Clone deep-copies the executor, including a program in flight. The
// clone's subsequent observations are byte-identical to the original's.
func (e *Executor) Clone() *Executor {
	c := *e
	c.core = e.core.Clone()
	c.tr, c.seq = e.tr[:len(e.tr):len(e.tr)], nil
	return &c
}

// Observe executes insts on thread 0 and returns its contract trace.
func (e *Executor) Observe(insts []isa.Inst) Trace {
	e.Start(isa.Program{{Body: insts, Count: 1}})
	return e.Finish()
}

// Start enqueues prog on thread 0 and opens the first observation
// window. Drive it with StepWindow, or run it out with Finish.
func (e *Executor) Start(prog isa.Program) {
	if !e.core.Idle() {
		panic("contract: Start on a busy executor")
	}
	// Phase boundaries serialize the pipeline (a context switch between
	// victim and attacker): transient stall debt and delivery-source
	// history die here, so a divergence can only come from state that
	// genuinely survives in a frontend structure.
	e.core.FE.DrainTransients(0)
	e.core.Enqueue(0, prog.Stream(), nil)
	e.win, e.tr, e.seq, e.room = e.now(), nil, nil, e.windows(prog)
}

// windows bounds the observation windows a phase running prog closes:
// every window but the last retires at least WindowUOps of its
// instructions, each of which the core counts as one retired micro-op.
func (e *Executor) windows(prog isa.Program) int {
	return (prog.Len() + e.p.WindowUOps - 1) / e.p.WindowUOps
}

// Finish steps the phase in flight to its end and returns its trace:
// every window the phase closed, those before a snapshot it was
// restored from included.
func (e *Executor) Finish() Trace {
	for {
		if _, ok := e.StepWindow(); !ok {
			return e.tr
		}
	}
}

// FinishNoting is Finish that also notes where the frontend reads the
// phase's program: for each index reads[i], ascending, cycles[i] is set
// to the cycle of the last state before the frontend read that
// instruction — for the index one past the program's end, before it
// tried to read past it. That state depends only on the instructions
// before the index, so a snapshot of it, which FinishTaking takes on a
// rerun of the phase, resumes any program that begins with them.
func (e *Executor) FinishNoting(reads []int, cycles []uint64) Trace {
	e.reads, e.cycles = reads, cycles
	defer func() { e.reads, e.cycles = nil, nil }()
	return e.Finish()
}

// FinishTaking is Finish that also snapshots the executor at each
// cycle in cycles, ascending, into snaps: cycles FinishNoting noted on
// an identical run of the phase. A cycle no step reaches, the one the
// phase was started or restored at, gets no snapshot.
func (e *Executor) FinishTaking(cycles []uint64, snaps []*Snapshot) Trace {
	for len(cycles) > 0 && cycles[0] <= e.core.Cycle() {
		snaps[0] = nil
		cycles, snaps = cycles[1:], snaps[1:]
	}
	e.takes, e.snaps = cycles, snaps
	defer func() { e.takes, e.snaps = nil, nil }()
	return e.Finish()
}

// read returns how many instructions of the phase's program the
// frontend has read. It runs after a step, once the program has left
// the queue. If the frontend read the whole program and dropped it
// before read first looked it up, every index counts as read.
func (e *Executor) read() int {
	if e.seq == nil {
		s, ok := e.core.FE.Stream(0).(*isa.SeqStream)
		if !ok {
			return math.MaxInt
		}
		e.seq = s
	}
	return e.seq.Pos()
}

// noteReads notes the cycle the last step began at, one before the
// current, for each noted instruction the step read, and for the end of
// the program once the step tried to read past it.
func (e *Executor) noteReads() {
	for len(e.reads) > 0 {
		if r, n := e.reads[0], e.read(); n < r || n == r && e.core.FE.Stream(0) != nil {
			return
		}
		e.cycles[0] = e.core.Cycle() - 1
		e.reads, e.cycles = e.reads[1:], e.cycles[1:]
	}
}

// takeSnapshots snapshots the executor for every noted cycle equal to
// the current one.
func (e *Executor) takeSnapshots() {
	s := e.Snapshot()
	for len(e.takes) > 0 && e.takes[0] == e.core.Cycle() {
		e.snaps[0] = s
		e.takes, e.snaps = e.takes[1:], e.snaps[1:]
	}
}

// now reads the counters an observation window is a delta of.
func (e *Executor) now() window {
	return window{
		retired: e.core.Retired(0),
		cycle:   e.core.Cycle(),
		energy:  e.core.PM.TrueEnergy(),
		ctr:     e.core.FE.Ctr[0],
		sw:      e.core.FE.SwitchBufferStats(),
		lines:   e.core.FE.DSB.TotalLines(),
	}
}

// StepWindow advances the program until WindowUOps micro-ops retire or
// the program completes, and returns the closed window's observation.
// ok=false once the program is done and every retired micro-op has been
// attributed to a window.
func (e *Executor) StepWindow() (Observation, bool) {
	target := e.win.retired + uint64(e.p.WindowUOps)
	// The cycle the runaway guard trips on; past the end of time, none.
	guard := ^uint64(0)
	if e.p.MaxCycles < guard-e.win.cycle {
		guard = e.win.cycle + e.p.MaxCycles + 1
	}
	for e.core.Retired(0) < target {
		if e.core.Idle() {
			// Program complete: flush the partial window, if any.
			if e.core.Retired(0) == e.win.retired {
				return Observation{}, false
			}
			break
		}
		// A stall is skipped in bulk, but never past the guard or the
		// next snapshot to take, so both see the state stepping reaches.
		limit := guard
		if len(e.takes) > 0 {
			limit = min(limit, e.takes[0])
		}
		e.core.Advance(limit)
		// Counted from the window's first cycle, so a window resumed
		// from a snapshot is guarded exactly like one stepped whole.
		if e.core.Cycle()-e.win.cycle > e.p.MaxCycles {
			panic(fmt.Sprintf("contract: window exceeded %d cycles", e.p.MaxCycles))
		}
		if len(e.reads) > 0 && e.read() >= e.reads[0] {
			e.noteReads()
		}
		if len(e.takes) > 0 && e.takes[0] == e.core.Cycle() {
			e.takeSnapshots()
		}
	}
	o := e.closeWindow()
	if len(e.tr) == cap(e.tr) {
		// Sized once per phase; a phase that closes no window keeps a
		// nil trace.
		e.tr = slices.Grow(e.tr, max(1, e.room-len(e.tr)))
	}
	e.tr = append(e.tr, o)
	return o, true
}

// closeWindow observes the open window against its baselines and opens
// the next one on the counters it just read, so each counter is read
// once per window.
func (e *Executor) closeWindow() Observation {
	now, b := e.now(), &e.win
	o := Observation{
		Cycles:         now.cycle - b.cycle,
		Energy:         now.energy - b.energy,
		UOpsLSD:        now.ctr.UOpsLSD - b.ctr.UOpsLSD,
		UOpsDSB:        now.ctr.UOpsDSB - b.ctr.UOpsDSB,
		UOpsMITE:       now.ctr.UOpsMITE - b.ctr.UOpsMITE,
		Switches:       now.ctr.SwitchCount - b.ctr.SwitchCount,
		SwitchCycles:   now.ctr.SwitchCycles - b.ctr.SwitchCycles,
		SwHits:         now.sw.Hits - b.sw.Hits,
		SwConflicts:    now.sw.Conflicts - b.sw.Conflicts,
		SwInserts:      now.sw.Inserts - b.sw.Inserts,
		StallCycles:    now.ctr.StallCycles - b.ctr.StallCycles,
		LCPStallCycles: now.ctr.LCPStallCycles - b.ctr.LCPStallCycles,
		L1IMisses:      now.ctr.L1IMisses - b.ctr.L1IMisses,
		Mispredicts:    now.ctr.Mispredicts - b.ctr.Mispredicts,
		DSBLines:       now.lines - b.lines,
		LSDLocked:      e.core.FE.LSDFor(0).Locked(),
	}
	e.win = now
	return o
}

// Pair is a secret-pair: one public program whose execution follows
// secret bit 0 or 1. The Prep phases may differ (they are the
// secret-dependent victim); the Probe phase must be identical public
// code — any probe-trace divergence is a leak through surviving
// microarchitectural state.
type Pair struct {
	Prep0, Prep1 []isa.Inst
	Probe        []isa.Inst
}

// Check runs both halves of the pair on fresh executors and compares
// the probe traces. ok=true means a divergence (a leak) was found.
func Check(m cpu.Model, seed uint64, p Params, pair Pair) (Divergence, bool) {
	_, _, d, ok := CheckTraces(m, seed, p, pair)
	return d, ok
}

// CheckTraces is Check returning both probe traces as well, for
// coverage extraction and reporting. Each arm's prep phase runs through
// Observe, like every other phase, and its trace is discarded: the
// attacker does not see the victim's own timing.
func CheckTraces(m cpu.Model, seed uint64, p Params, pair Pair) (t0, t1 Trace, d Divergence, leak bool) {
	e0 := NewExecutorWith(m, seed, p)
	e0.Observe(pair.Prep0)
	t0 = e0.Observe(pair.Probe)
	e1 := NewExecutorWith(m, seed, p)
	e1.Observe(pair.Prep1)
	t1 = e1.Observe(pair.Probe)
	d, leak = Compare(t0, t1)
	return t0, t1, d, leak
}
