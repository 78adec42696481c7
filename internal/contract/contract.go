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
package contract

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

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

// Executor runs instruction sequences on a private simulated core and
// records contract traces. It is fully deterministic: the TSC/noise
// paths are never touched, so two executors built with the same model
// and seed produce identical traces for identical programs — and a
// Clone mid-program replays byte-identically.
type Executor struct {
	core *cpu.Core
	p    Params
	seed uint64
	// pristine is a core as NewExecutorWith built it, which Reset copies
	// over core; built on the first Reset.
	pristine *cpu.Core

	// Baselines for the open observation window.
	winRetired uint64
	baseCycle  uint64
	baseEnergy float64
	baseCtr    frontend.ThreadCounters
	baseSw     frontend.SwitchStats
	baseLines  int
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

// Reset restores the executor to its state at construction, in place:
// the core's state is overwritten with a pristine core's, reusing its
// buffers, so a sequence of programs can each run from the same machine
// state as on a fresh executor, without building one. The next
// observations are byte-identical to a fresh executor's.
func (e *Executor) Reset() {
	if e.pristine == nil {
		e.pristine = cpu.NewCore(e.core.Model, e.seed)
	}
	e.core.CopyFrom(e.pristine)
	*e = Executor{core: e.core, p: e.p, seed: e.seed, pristine: e.pristine}
}

// Core exposes the underlying core (tests, coverage features).
func (e *Executor) Core() *cpu.Core { return e.core }

// Clone deep-copies the executor, including a program in flight. The
// clone's subsequent observations are byte-identical to the original's.
func (e *Executor) Clone() *Executor {
	c := *e
	c.core = e.core.Clone()
	c.pristine = nil
	return &c
}

// Observe executes insts on thread 0 and returns its contract trace.
func (e *Executor) Observe(insts []isa.Inst) Trace {
	e.Start(insts)
	var tr Trace
	for {
		o, ok := e.StepWindow()
		if !ok {
			return tr
		}
		tr = append(tr, o)
	}
}

// Start enqueues insts on thread 0 and opens the first observation
// window. Drive it with StepWindow.
func (e *Executor) Start(insts []isa.Inst) {
	if !e.core.Idle() {
		panic("contract: Start on a busy executor")
	}
	// Phase boundaries serialize the pipeline (a context switch between
	// victim and attacker): transient stall debt and delivery-source
	// history die here, so a divergence can only come from state that
	// genuinely survives in a frontend structure.
	e.core.FE.DrainTransients(0)
	e.core.Enqueue(0, isa.NewSeqStream(insts), nil)
	e.openWindow()
}

// openWindow snapshots the baselines the next observation is a delta
// against.
func (e *Executor) openWindow() {
	e.winRetired = e.core.Retired(0)
	e.baseCycle = e.core.Cycle()
	e.baseEnergy = e.core.PM.TrueEnergy()
	e.baseCtr = e.core.FE.Ctr[0]
	e.baseSw = e.core.FE.SwitchBufferStats()
	e.baseLines = e.core.FE.DSB.TotalLines()
}

// StepWindow advances the program until WindowUOps micro-ops retire or
// the program completes, and returns the closed window's observation.
// ok=false once the program is done and every retired micro-op has been
// attributed to a window.
func (e *Executor) StepWindow() (Observation, bool) {
	start := e.core.Cycle()
	target := e.winRetired + uint64(e.p.WindowUOps)
	for e.core.Retired(0) < target {
		if e.core.Idle() {
			// Program complete: flush the partial window, if any.
			if e.core.Retired(0) == e.winRetired {
				return Observation{}, false
			}
			break
		}
		e.core.Step()
		if e.core.Cycle()-start > e.p.MaxCycles {
			panic(fmt.Sprintf("contract: window exceeded %d cycles", e.p.MaxCycles))
		}
	}
	o := e.observe()
	e.openWindow()
	return o, true
}

// observe closes the current window against its baselines.
func (e *Executor) observe() Observation {
	ctr := e.core.FE.Ctr[0]
	sw := e.core.FE.SwitchBufferStats()
	return Observation{
		Cycles:         e.core.Cycle() - e.baseCycle,
		Energy:         e.core.PM.TrueEnergy() - e.baseEnergy,
		UOpsLSD:        ctr.UOpsLSD - e.baseCtr.UOpsLSD,
		UOpsDSB:        ctr.UOpsDSB - e.baseCtr.UOpsDSB,
		UOpsMITE:       ctr.UOpsMITE - e.baseCtr.UOpsMITE,
		Switches:       ctr.SwitchCount - e.baseCtr.SwitchCount,
		SwitchCycles:   ctr.SwitchCycles - e.baseCtr.SwitchCycles,
		SwHits:         sw.Hits - e.baseSw.Hits,
		SwConflicts:    sw.Conflicts - e.baseSw.Conflicts,
		SwInserts:      sw.Inserts - e.baseSw.Inserts,
		StallCycles:    ctr.StallCycles - e.baseCtr.StallCycles,
		LCPStallCycles: ctr.LCPStallCycles - e.baseCtr.LCPStallCycles,
		L1IMisses:      ctr.L1IMisses - e.baseCtr.L1IMisses,
		Mispredicts:    ctr.Mispredicts - e.baseCtr.Mispredicts,
		DSBLines:       e.core.FE.DSB.TotalLines() - e.baseLines,
		LSDLocked:      e.core.FE.LSDFor(0).Locked(),
	}
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
