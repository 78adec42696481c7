// Package defense implements the countermeasures the paper discusses in
// Section XII as *ablations*: each defense is applied to the simulated
// frontend and the corresponding attack is re-run, demonstrating both
// that the defense closes the channel and what it costs. The paper's
// core observation — that the frontend's timing signatures exist
// *because* the multiple paths exist — shows up directly: the only
// defense that closes the single-threaded channels is equalizing the
// paths, which forfeits the DSB's speedup.
//
// Defenses are registered declaratively: a Defense carries its model
// transform, an applicability predicate over a scenario's facets, and
// the prose an advisory renders. The registry order is canonical —
// DefenseNone first, then the Section XII mitigations in paper order —
// and spec.Enumerate spans the axis in exactly this order.
package defense

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/spectre"
)

// Canonical defense names, in registry order.
const (
	// DefenseNone is the undefended baseline every residual is measured
	// against.
	DefenseNone = "none"
	// DefenseNoSMT disables hyper-threading (Section XII: "the SMT can
	// always be disabled for security-critical applications").
	DefenseNoSMT = "nosmt"
	// DefenseEqualizePaths forces every frontend path to the same
	// effective timing and power, forfeiting the DSB/LSD win.
	DefenseEqualizePaths = "eqpaths"
	// DefenseNoRAPL removes unprivileged energy-counter access, Intel's
	// deployed mitigation for the power sink.
	DefenseNoRAPL = "norapl"
	// DefensePartition statically partitions the DSB between the two
	// hardware threads, removing the occupancy transitions the MT
	// eviction channel modulates.
	DefensePartition = "partition"
)

// Scenario is the slice of a channel scenario an applicability
// predicate looks at. It is deliberately not a spec.ChannelSpec — spec
// imports this package — but spec derives one from each spec before
// asking whether a defense applies.
type Scenario struct {
	// MT is true when sender and receiver run on sibling hyper-threads.
	MT bool
	// PowerSink is true when the receiver reads RAPL.
	PowerSink bool
	// ModelHT is true when the *undefended* model has hyper-threading
	// enabled (Table I).
	ModelHT bool
}

// Defense is one registered countermeasure: a pure model transform plus
// the metadata the spec layer and the advisory renderer need. The zero
// value is not a valid Defense; use Lookup or All.
type Defense struct {
	// Name is the canonical lower-case identifier ("nosmt").
	Name string
	// Desc is a one-line description for catalogs and CLI help.
	Desc string
	// Impact is advisory prose: what the defense does to the attack
	// surface, including what it does NOT close.
	Impact string
	// Mitigation is advisory prose: how the defense is deployed.
	Mitigation string
	// Transform returns the defended model; it never mutates its input.
	Transform func(cpu.Model) cpu.Model
	// applies reports why the defense cannot be measured against a
	// scenario (nil when it can). Unexported so every Defense in
	// circulation carries a predicate from the registry.
	applies func(Scenario) error
	// eliminates reports that the defense removes the scenario's
	// substrate outright (nosmt x MT): the channel's residual capacity
	// is exactly zero, as opposed to an inapplicable no-op that leaves
	// it at baseline. nil means never.
	eliminates func(Scenario) bool
}

// Apply returns the defended model. A nil Transform (the zero Defense)
// is the identity, so the zero value degrades safely.
func (d Defense) Apply(m cpu.Model) cpu.Model {
	if d.Transform == nil {
		return m
	}
	return d.Transform(m)
}

// Applies reports whether the defense is measurable against the
// scenario; a non-nil error names the reason. "Not applicable" means
// the combination is not a residual worth a row: the defense either
// removes the scenario's substrate entirely (nosmt × MT — there is no
// sibling thread left to measure) or cannot interact with it at all
// (norapl × timing — a pure no-op).
func (d Defense) Applies(sc Scenario) error {
	if d.applies == nil {
		return nil
	}
	return d.applies(sc)
}

// Eliminates reports that the defense removes the scenario's substrate
// outright, so its residual capacity is exactly zero without a
// measurement. Advisory accounting distinguishes this from a plain
// inapplicable defense, which leaves the scenario at its undefended
// baseline.
func (d Defense) Eliminates(sc Scenario) bool {
	return d.eliminates != nil && d.eliminates(sc)
}

// The reasons a defense does not apply. Their messages are fixed, so
// each is built once, not once per candidate spec.Enumerate rejects
// with it.
var (
	errNoSMTEliminatesMT  = errors.New("defense: nosmt eliminates the MT channels outright — there is no residual to measure")
	errNoSMTWithoutHT     = errors.New("defense: hyper-threading is already disabled on this model (Table I)")
	errNoRAPLTiming       = errors.New("defense: norapl is a no-op for timing sinks — nothing to measure")
	errPartitionWithoutHT = errors.New("defense: the DSB never partitions with hyper-threading disabled (Table I)")
)

// registry is the canonical defense catalog, in the order Enumerate
// spans the axis: the undefended baseline first, then the Section XII
// mitigations in paper order, partitioning (this reproduction's
// addition) last.
var registry = []Defense{
	{
		Name:       DefenseNone,
		Desc:       "undefended baseline",
		Impact:     "No mitigation applied; every channel in the affected-configurations table is live at the rates shown.",
		Mitigation: "None. This row is the baseline the residual columns are measured against.",
		Transform:  func(m cpu.Model) cpu.Model { return m },
		applies:    func(Scenario) error { return nil },
	},
	{
		Name: DefenseNoSMT,
		Desc: "disable hyper-threading (Section XII)",
		Impact: "Eliminates the cross-thread (MT) channels outright by removing the sibling thread. " +
			"The single-threaded timing and power channels are untouched and remain at full rate.",
		Mitigation: "Disable SMT in firmware, or isolate security-critical workloads on dedicated physical cores.",
		Transform: func(m cpu.Model) cpu.Model {
			m.HyperThreading = false
			m.Threads = m.Cores
			return m
		},
		applies: func(sc Scenario) error {
			if sc.MT {
				return errNoSMTEliminatesMT
			}
			if !sc.ModelHT {
				return errNoSMTWithoutHT
			}
			return nil
		},
		eliminates: func(sc Scenario) bool { return sc.MT && sc.ModelHT },
	},
	{
		Name: DefenseEqualizePaths,
		Desc: "equalize frontend path timing and power (Section XII)",
		Impact: "Removes the per-path timing and energy signatures by slowing the DSB and LSD to MITE's pace, " +
			"forfeiting the frontend's performance and power benefits. Channels that leak through execution " +
			"length rather than path choice survive.",
		Mitigation: "No hardware knob exists; modelled here as a microarchitectural ablation. Constant-work coding " +
			"achieves the per-program equivalent.",
		Transform: func(m cpu.Model) cpu.Model {
			fe := m.FE
			// 5-uop mix blocks: MITE needs 2 fetch groups; throttle
			// DSB/LSD delivery to the same 2 cycles per block.
			fe.DeliverWidth = 3
			fe.LSDJumpBubble = 0
			fe.MITERedirectBubble = 0
			fe.SwitchPenalty = 0
			fe.SwitchResidual = 0
			fe.LCPStallIsolated = 0
			fe.LCPStallChained = 0
			fe.DSBCrossPenalty = 0
			m.FE = fe
			// Equal paths also implies equal power draw.
			m.PW.EnergyMITEUOp = m.PW.EnergyDSBUOp
			m.PW.EnergyLSDUOp = m.PW.EnergyDSBUOp
			return m
		},
		applies: func(Scenario) error { return nil },
	},
	{
		Name: DefenseNoRAPL,
		Desc: "remove unprivileged RAPL access (Section XII)",
		Impact: "Starves the power receiver: the energy counter stops updating within any attack window. " +
			"Every timing channel is untouched — this is Intel's deployed mitigation and it closes only the power sink.",
		Mitigation: "Apply the microcode/OS update restricting RAPL to privileged readers (Intel SA-00389 lineage).",
		Transform: func(m cpu.Model) cpu.Model {
			m.PW.RAPLIntervalCycles = 1 << 62
			return m
		},
		applies: func(sc Scenario) error {
			if !sc.PowerSink {
				return errNoRAPLTiming
			}
			return nil
		},
	},
	{
		Name: DefensePartition,
		Desc: "statically partition the DSB between hyper-threads",
		Impact: "Pins the DSB in its partitioned configuration so sibling activity never changes set ownership, " +
			"removing the occupancy transitions the MT eviction channel modulates. Single-threaded channels " +
			"keep their path-timing signal, and each thread permanently runs on half the DSB sets.",
		Mitigation: "No configuration knob exists on current parts; modelled here as the hardware change the paper " +
			"sketches. Disabling SMT is the deployable alternative.",
		Transform: func(m cpu.Model) cpu.Model {
			m.StaticDSBPartition = true
			return m
		},
		applies: func(sc Scenario) error {
			if !sc.ModelHT {
				return errPartitionWithoutHT
			}
			return nil
		},
	},
}

// All returns the registered defenses in canonical order. The slice is
// fresh per call; the Defense values share the registry's function
// pointers.
func All() []Defense {
	out := make([]Defense, len(registry))
	copy(out, registry)
	return out
}

// Names returns the canonical defense names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Name
	}
	return names
}

// Lookup resolves a defense by name, case-insensitively.
func Lookup(name string) (Defense, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Defense{}, false
}

// Resolve is Lookup with an error listing the valid names, for flag and
// request parsing.
func Resolve(name string) (Defense, error) {
	if d, ok := Lookup(name); ok {
		return d, nil
	}
	names := Names()
	sort.Strings(names)
	return Defense{}, fmt.Errorf("defense: unknown defense %q (valid: %s)", name, strings.Join(names, ", "))
}

// SpectreBufferedDSB evaluates the Section XII Spectre defense
// ("buffering cache updates could be applied to the DSB"): the transient
// gadget's decoded window is not installed architecturally, so the
// frontend channel sees nothing. It returns the attack accuracy with the
// defense on.
func SpectreBufferedDSB(seed uint64) float64 {
	cfg := spectre.DefaultConfig(spectre.Frontend)
	cfg.Seed = seed
	lab := spectre.NewLab(cfg)
	lab.BufferTransientFills(true)
	return lab.Leak([]byte{3, 17, 29, 8}).Accuracy
}

// PerformanceCost measures the throughput price of a defended frontend:
// cycles per mix-block pass on the defended model divided by the
// baseline's. The eqpaths defense trades exactly the DSB/LSD win away.
func PerformanceCost(base, defended cpu.Model, seed uint64) float64 {
	measure := func(m cpu.Model) float64 {
		core := cpu.NewCore(m, seed)
		// A DSB-friendly straight-line loop: the workload class the fast
		// paths exist to accelerate.
		blocks := []*isa.Block{isa.NopBlockLen(0x0060_0000, 100, 2)}
		isa.ChainLoop(blocks)
		core.Enqueue(0, isa.NewLoopStream(blocks, 50), nil)
		core.RunUntilIdle(10_000_000)
		start := core.Cycle()
		core.Enqueue(0, isa.NewLoopStream(blocks, 500), nil)
		core.RunUntilIdle(50_000_000)
		return float64(core.Cycle() - start)
	}
	return measure(defended) / measure(base)
}
