// Package spec defines ChannelSpec, a declarative description of one
// covert-channel scenario from the paper's combinatorial attack space:
// mechanism (eviction / misalignment / LCP slow-switch) x threading
// (non-MT / MT) x sink (timing / power) x enclave (SGX or not) x
// stealthiness x protocol parameters (d, M, p) x CPU model.
//
// The paper's seven named channels are seven points in this space; a
// ChannelSpec can name any valid point. Specs are plain data — JSON- and
// flag-encodable — with a canonical string form, so any client can
// enumerate the space (Enumerate), request a scenario over HTTP, and
// get the run deterministically cached under the spec's CacheKey.
//
// The lifecycle is Normalize -> Validate -> Build: Normalize fills
// defaults so equal scenarios compare equal, Validate rejects the
// impossible combinations (MT on an SMT-disabled model, power+SGX,
// anything but plain non-MT timing for slow-switch), and Build
// constructs the simulated channel from the attack package's default
// configurations — a default spec transmits byte-identically to the
// paper's channel built by hand from those defaults.
package spec

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/channel"
	"repro/internal/cmdutil"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/runctx"
)

// Mechanism is the frontend mechanism a channel modulates.
type Mechanism string

// Mechanisms.
const (
	// MechanismEviction forces DSB set collisions (Section IV-F).
	MechanismEviction Mechanism = "eviction"
	// MechanismMisalignment forces LSD collisions through half-window
	// offset blocks (Section IV-G).
	MechanismMisalignment Mechanism = "misalignment"
	// MechanismSlowSwitch modulates the LCP pre-decode stall and
	// path-switch penalty (Section V-E).
	MechanismSlowSwitch Mechanism = "slowswitch"
)

// Threading places sender and receiver on one hardware thread (non-MT)
// or on the two sibling threads of an SMT core (MT).
type Threading string

// Threading values.
const (
	ThreadingNonMT Threading = "nonmt"
	ThreadingMT    Threading = "mt"
)

// Sink is the receiver's measurement surface.
type Sink string

// Sinks.
const (
	// SinkTiming times with rdtscp (Sections V, VI).
	SinkTiming Sink = "timing"
	// SinkPower reads Intel RAPL (Section VII).
	SinkPower Sink = "power"
)

// DefaultCalibBits is the calibration-preamble length Transmit has
// always used; a zero CalibBits normalizes to it.
const DefaultCalibBits = 40

// Validation caps — generous multiples of the paper's largest settings.
// They exist because the simulator budgets cycles per protocol step
// (cpu.Core.RunUntilIdle panics past its budget): a spec beyond these
// bounds would crash the run rather than measure anything, so Validate
// rejects it up front — which also keeps one HTTP request from taking
// the serving daemon down.
const (
	// MaxCalibBits bounds the calibration preamble, mirroring the
	// daemon's message-length cap.
	MaxCalibBits = 2000
	// maxIterP bounds p for the iteration-count channels (non-MT
	// timing, SGX non-MT, slow-switch; paper max 5000).
	maxIterP = 100_000
	// maxMeasureP bounds p for the MT channels' decode passes (paper
	// uses 10).
	maxMeasureP = 10_000
	// maxPowerP bounds the power sink's per-bit iterations (paper uses
	// 240,000).
	maxPowerP = 1_000_000
)

// ChannelSpec declares one covert-channel scenario. The zero value
// normalizes to the paper's fastest configuration — the non-MT fast
// eviction timing channel on the Gold 6226 — and every unset field
// takes the paper default for the selected mechanism, so a spec only
// states what deviates.
type ChannelSpec struct {
	// Model is the Table I model name, matched case-insensitively;
	// empty means "Gold 6226". Build ignores it (the model is passed
	// in), so a spec can also be built against defended or otherwise
	// modified models.
	Model string `json:"model,omitempty"`
	// Mechanism defaults to eviction.
	Mechanism Mechanism `json:"mechanism,omitempty"`
	// Threading defaults to nonmt.
	Threading Threading `json:"threading,omitempty"`
	// Sink defaults to timing.
	Sink Sink `json:"sink,omitempty"`
	// SGX puts the sender inside an enclave (Section VIII).
	SGX bool `json:"sgx,omitempty"`
	// Stealthy selects the non-MT bit-0 encoding that still executes
	// blocks instead of doing nothing (Section V-C).
	Stealthy bool `json:"stealthy,omitempty"`
	// Contended makes the MT eviction sender spin delivery-hungry
	// between steps, the protocol the paper's Table II d=1 rows need.
	Contended bool `json:"contended,omitempty"`
	// Defense names the Section XII countermeasure applied to the model
	// before the channel is built (defense.Names lists them); empty
	// means "none", the undefended baseline. Validate rejects
	// combinations the defense makes unmeasurable (nosmt invalidates MT
	// specs, norapl is a no-op rejection for timing sinks, partition
	// needs a hyper-threaded model).
	Defense string `json:"defense,omitempty"`
	// D is the receiver way count d; 0 means the mechanism default
	// (6 eviction, 5 misalignment).
	D int `json:"d,omitempty"`
	// M is the misalignment variant's total way count; 0 means 8.
	M int `json:"m,omitempty"`
	// P is the per-bit repetition parameter; its exact meaning follows
	// the mechanism, matching the knob each paper protocol exposes:
	// loop iterations for non-MT timing (p = q = 10; raised to 1000
	// inside SGX), timed decode passes for MT (10), and per-bit loop
	// iterations for the power sink (120,000). 0 means that default.
	P int `json:"p,omitempty"`
	// CalibBits is the Transmit calibration-preamble length; 0 means
	// DefaultCalibBits.
	CalibBits int `json:"calib,omitempty"`
	// Seed seeds the channel's deterministic randomness; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
}

// kind maps the mechanism onto the attack-layer kind; slow-switch has
// no kind (its Build path never asks).
func (s ChannelSpec) kind() attack.Kind {
	if s.Mechanism == MechanismMisalignment {
		return attack.Misalignment
	}
	return attack.Eviction
}

// scenario projects the spec onto the facets a defense applicability
// predicate looks at, judged against the undefended model m.
func (s ChannelSpec) scenario(m cpu.Model) defense.Scenario {
	return defense.Scenario{
		MT:        s.Threading == ThreadingMT,
		PowerSink: s.Sink == SinkPower,
		ModelHT:   m.HyperThreading,
	}
}

// Normalize returns the spec with every unset field replaced by its
// default, so any two specs describing the same scenario compare equal
// and share one canonical encoding. The model name is canonicalized to
// its Table I spelling when it resolves; an unresolvable name is kept
// verbatim for Validate to report.
func (s ChannelSpec) Normalize() ChannelSpec {
	if s.Model == "" {
		s.Model = cpu.Gold6226().Name
	} else if m, err := cmdutil.ResolveModel(s.Model); err == nil {
		s.Model = m.Name
	}
	return s.withDefaults()
}

// withDefaults is Normalize without the model name: every other unset
// field replaced by its default.
func (s ChannelSpec) withDefaults() ChannelSpec {
	if s.Mechanism == "" {
		s.Mechanism = MechanismEviction
	}
	if s.Threading == "" {
		s.Threading = ThreadingNonMT
	}
	if s.Sink == "" {
		s.Sink = SinkTiming
	}
	if s.Defense == "" {
		s.Defense = defense.DefenseNone
	} else if d, ok := defense.Lookup(s.Defense); ok {
		s.Defense = d.Name
	}
	if s.Mechanism != MechanismSlowSwitch {
		if s.D == 0 {
			if s.Mechanism == MechanismMisalignment {
				s.D = attack.DefaultMisalignD
			} else {
				s.D = attack.DefaultD
			}
		}
		if s.M == 0 && s.Mechanism == MechanismMisalignment {
			s.M = attack.DefaultM
		}
	}
	if s.P == 0 {
		switch {
		case s.Sink == SinkPower:
			s.P = attack.DefaultPowerIters
		case s.Threading == ThreadingMT:
			s.P = attack.DefaultMeasurements
		case s.SGX:
			// NewSGXNonMT raises any smaller p to its floor anyway
			// (Section VIII); normalizing to the floor keeps the
			// canonical encoding honest about what runs.
			s.P = attack.SGXNonMTIters
		default:
			s.P = attack.DefaultP
		}
	}
	if s.CalibBits == 0 {
		s.CalibBits = DefaultCalibBits
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// ResolveModel resolves the spec's model name against the Table I
// catalog (case-insensitively, via the shared cmdutil lookup). The
// error lists the valid names.
func (s ChannelSpec) ResolveModel() (cpu.Model, error) {
	s = s.Normalize()
	m, err := cmdutil.ResolveModel(s.Model)
	if err != nil {
		return cpu.Model{}, fmt.Errorf("spec: %v", err)
	}
	return m, nil
}

// Validate resolves the spec's model and checks the scenario against
// it; a nil error means Build will succeed. The daemon calls this
// before admitting a request, so impossible scenarios fail fast
// without consuming a simulation slot.
func (s ChannelSpec) Validate() error {
	m, err := s.ResolveModel()
	if err != nil {
		return err
	}
	return s.ValidateFor(m)
}

// ValidateFor checks the scenario against an explicit model — possibly
// a defended or otherwise modified one — ignoring the spec's Model
// name. It rejects every impossible combination: unknown enum values,
// MT on an SMT-disabled model, an enclave sender on a model without
// SGX, the power sink behind SGX or across hyper-threads, any
// slow-switch variant beyond plain non-MT timing, and out-of-range
// protocol parameters.
func (s ChannelSpec) ValidateFor(m cpu.Model) error {
	return s.withDefaults().validFor(m).error()
}

// A rejection is the first rule a spec breaks, its message not yet
// built: Enumerate weighs 960 candidates, drops 784 and reads none of
// their messages. The format's verbs take, in order, str, both ints or
// err; a spec that breaks no rule has no format.
type rejection struct {
	format string
	str    string
	ints   [2]int
	err    error
}

// error builds the rejection's message, or returns nil for a spec that
// breaks no rule.
func (r rejection) error() error {
	switch {
	case r.format == "":
		return nil
	case r.err != nil:
		return fmt.Errorf("spec: "+r.format, r.err)
	}
	switch strings.Count(r.format, "%") {
	case 2:
		return fmt.Errorf("spec: "+r.format, r.ints[0], r.ints[1])
	case 1:
		return fmt.Errorf("spec: "+r.format, r.str)
	}
	return errors.New("spec: " + r.format)
}

// validFor is ValidateFor of a spec whose fields hold their defaults,
// with the message left unbuilt.
func (s ChannelSpec) validFor(m cpu.Model) rejection {
	switch s.Mechanism {
	case MechanismEviction, MechanismMisalignment, MechanismSlowSwitch:
	default:
		return rejection{format: "unknown mechanism %q (eviction|misalignment|slowswitch)", str: string(s.Mechanism)}
	}
	switch s.Threading {
	case ThreadingNonMT, ThreadingMT:
	default:
		return rejection{format: "unknown threading %q (nonmt|mt)", str: string(s.Threading)}
	}
	switch s.Sink {
	case SinkTiming, SinkPower:
	default:
		return rejection{format: "unknown sink %q (timing|power)", str: string(s.Sink)}
	}
	d, err := defense.Resolve(s.Defense)
	if err != nil {
		return rejection{format: "%v", err: err}
	}
	// Applicability is judged against the undefended model: a defense
	// that removes the scenario's substrate (nosmt x MT) or cannot
	// interact with its sink (norapl x timing) is a rejection, not a
	// zero-residual row.
	if err := d.Applies(s.scenario(m)); err != nil {
		return rejection{format: "%v", err: err}
	}
	maxP := maxIterP
	switch {
	case s.Sink == SinkPower:
		maxP = maxPowerP
	case s.Threading == ThreadingMT:
		maxP = maxMeasureP
	}
	if s.P < 1 || s.P > maxP {
		return rejection{format: "p=%d out of range (want 1..%d for this scenario)", ints: [2]int{s.P, maxP}}
	}
	if s.CalibBits < 2 || s.CalibBits > MaxCalibBits {
		return rejection{format: "calib=%d out of range (want 2..%d)", ints: [2]int{s.CalibBits, MaxCalibBits}}
	}
	if s.Mechanism == MechanismSlowSwitch {
		// The slow-switch channel leaks through issue-pattern timing of
		// one thread's own code; it has no way count, no cross-thread
		// variant, no power receiver, and no stealthy encoding.
		switch {
		case s.Threading != ThreadingNonMT:
			return rejection{format: "slowswitch is non-MT only (Section V-E)"}
		case s.Sink != SinkTiming:
			return rejection{format: "slowswitch has no power variant (Section V-E)"}
		case s.SGX:
			return rejection{format: "slowswitch has no SGX variant (Section V-E)"}
		case s.Stealthy:
			return rejection{format: "slowswitch has no stealthy variant (both bits execute the same block count)"}
		case s.Contended:
			return rejection{format: "contended applies only to the MT eviction protocol"}
		case s.D != 0 || s.M != 0:
			return rejection{format: "slowswitch takes no d/m way counts"}
		}
		return rejection{}
	}
	if s.D < 1 || s.D > isa.DSBWays {
		return rejection{format: "d=%d out of range (want 1..%d)", ints: [2]int{s.D, isa.DSBWays}}
	}
	if s.Mechanism == MechanismMisalignment {
		if s.M > isa.DSBWays {
			return rejection{format: "m=%d out of range (want <= %d)", ints: [2]int{s.M, isa.DSBWays}}
		}
		if s.M <= s.D {
			return rejection{format: "misalignment needs m > d (m-d sender blocks); got d=%d m=%d", ints: [2]int{s.D, s.M}}
		}
	} else if s.M != 0 {
		return rejection{format: "m applies only to the misalignment mechanism"}
	}
	if s.SGX && s.Threading == ThreadingNonMT && s.P < attack.SGXNonMTIters {
		// The enclave layer would silently raise a smaller p to its
		// floor; rejecting instead keeps the canonical encoding equal to
		// what actually runs.
		return rejection{format: "SGX non-MT needs p >= %d (Section VIII); got p=%d", ints: [2]int{attack.SGXNonMTIters, s.P}}
	}
	if s.Sink == SinkPower {
		// The paper's power receiver polls RAPL from the sender's own
		// thread, outside any enclave (Section VII).
		switch {
		case s.Threading != ThreadingNonMT:
			return rejection{format: "the power sink is non-MT only (Section VII)"}
		case s.SGX:
			return rejection{format: "power+SGX is impossible — RAPL is not readable from inside an enclave (Section VII)"}
		case s.Stealthy:
			return rejection{format: "the power channel's bit-0 already executes decoy blocks; stealthy does not apply"}
		case s.Contended:
			return rejection{format: "contended applies only to the MT eviction protocol"}
		}
		return rejection{}
	}
	if s.Threading == ThreadingMT {
		if !m.HyperThreading {
			return rejection{format: "MT on %s is impossible — hyper-threading is disabled (Table I)", str: m.Name}
		}
		if s.Stealthy {
			return rejection{format: "the MT channels have no stealthy variant (the sender idles on bit 0)"}
		}
		if s.Contended && s.Mechanism != MechanismEviction {
			return rejection{format: "contended applies only to the MT eviction protocol"}
		}
	} else if s.Contended {
		return rejection{format: "contended applies only to the MT eviction protocol"}
	}
	if s.SGX && !m.SGX {
		return rejection{format: "%s has no SGX support (Table I)", str: m.Name}
	}
	return rejection{}
}

// Build constructs the simulated channel for this scenario on m,
// ignoring the spec's Model name. It starts from the attack package's
// Default* configurations and overrides only what the spec sets, so a
// default spec builds a channel that transmits byte-identically to one
// built by hand from those defaults. Build panics on a spec ValidateFor
// rejects — matching the attack constructors' contract — so callers
// taking untrusted specs must Validate first.
func (s ChannelSpec) Build(m cpu.Model) channel.BitChannel {
	if err := s.ValidateFor(m); err != nil {
		panic(err.Error())
	}
	s = s.Normalize()
	// The defense transform defends the model the channel is built on;
	// DefenseNone's transform is the identity, so an undefended spec
	// builds on exactly the model it was given.
	if d, ok := defense.Lookup(s.Defense); ok {
		m = d.Apply(m)
	}
	switch {
	case s.Mechanism == MechanismSlowSwitch:
		cfg := attack.DefaultSlowSwitch(m)
		cfg.P = s.P
		cfg.Seed = s.Seed
		return attack.NewSlowSwitch(cfg)
	case s.Sink == SinkPower:
		cfg := attack.DefaultPower(m, s.kind())
		cfg.D, cfg.M = s.D, s.M
		cfg.Iters = s.P
		cfg.Seed = s.Seed
		return attack.NewPower(cfg)
	case s.Threading == ThreadingMT:
		cfg := attack.DefaultMT(m, s.kind())
		cfg.D, cfg.M = s.D, s.M
		cfg.Measurements = s.P
		cfg.ContendedSender = s.Contended
		cfg.Seed = s.Seed
		if s.SGX {
			return attack.NewSGXMT(cfg)
		}
		return attack.NewMT(cfg)
	default:
		cfg := attack.DefaultNonMT(m, s.kind(), s.Stealthy)
		cfg.D, cfg.M = s.D, s.M
		cfg.P = s.P
		cfg.Seed = s.Seed
		if s.SGX {
			return attack.NewSGXNonMT(cfg)
		}
		return attack.NewNonMT(cfg)
	}
}

// Identity returns the canonical encoding without the seed clause: the
// scenario's seed-independent identity. Sweep-style seed splitting
// derives each spec's seed from this string, so equal scenarios get
// equal splits whatever seed they currently hold; any new field must
// be added here (and thereby to String), never after the seed clause.
func (s ChannelSpec) Identity() string {
	return s.Normalize().identityNorm()
}

// identityNorm renders the identity of an already-normalized spec.
func (s ChannelSpec) identityNorm() string {
	return fmt.Sprintf("model=%s,mech=%s,thread=%s,sink=%s,sgx=%t,stealthy=%t,contended=%t,defense=%s,d=%d,m=%d,p=%d,calib=%d",
		s.Model, s.Mechanism, s.Threading, s.Sink, s.SGX, s.Stealthy, s.Contended, s.Defense, s.D, s.M, s.P, s.CalibBits)
}

// String returns the canonical encoding: the normalized fields in a
// fixed order — Identity plus the seed clause — so every spelling of
// one scenario renders one string. It is the flag-friendly inverse of
// the JSON form and the body of CacheKey.
func (s ChannelSpec) String() string {
	s = s.Normalize()
	return fmt.Sprintf("%s,seed=%d", s.identityNorm(), s.Seed)
}

// CacheKey returns the versioned canonical key for this scenario.
// Specs are normalized first, so every spelling of one scenario maps to
// one entry; channels are pure functions of their spec, so equal keys
// imply bit-identical transmissions. Bump the version prefix whenever a
// field's meaning changes — v2 added the defense clause to the
// identity, so v1 keys (which never named a defense) can never collide
// with defended runs.
func (s ChannelSpec) CacheKey() string {
	return "chan-v2|" + s.String()
}

// Transmit resolves the spec's model, builds the channel, and sends
// message (a '0'/'1' string) through it, calibrating on the spec's
// preamble length. It fails instead of panicking on an invalid spec.
func (s ChannelSpec) Transmit(message string) (channel.Result, error) {
	return s.TransmitCtx(runctx.Background(), message)
}

// TransmitCtx is Transmit under a run context: the transmission
// checkpoints per bit and unwinds when rc is cancelled.
func (s ChannelSpec) TransmitCtx(rc runctx.Ctx, message string) (channel.Result, error) {
	m, err := s.ResolveModel()
	if err != nil {
		return channel.Result{}, err
	}
	if err := s.ValidateFor(m); err != nil {
		return channel.Result{}, err
	}
	s = s.Normalize()
	return channel.TransmitCtx(rc, s.Build(m), m.Name, message, s.CalibBits)
}

// CalibrationKey returns the full measurement identity a calibration
// snapshot is keyed by: model, mechanism, threading, sink, SGX,
// stealthiness, contention, defense, protocol parameters, calibration
// width, and seed. Two specs with equal keys run byte-identical
// calibration preambles, so their snapshots are interchangeable. The
// key is the cache key: every field of a spec participates in
// calibration.
func (s ChannelSpec) CalibrationKey() string {
	return s.CacheKey()
}

// CalibrateCtx resolves and validates the spec, builds its channel, runs
// the calibration preamble under rc, and returns the memoized
// calibration snapshot. Transmitting through the snapshot is
// byte-identical to TransmitCtx on this spec (the unmemoized path runs
// the same preamble inline before its message bits).
func (s ChannelSpec) CalibrateCtx(rc runctx.Ctx) (*channel.Calibration, error) {
	m, err := s.ResolveModel()
	if err != nil {
		return nil, err
	}
	if err := s.ValidateFor(m); err != nil {
		return nil, err
	}
	s = s.Normalize()
	ch, ok := s.Build(m).(channel.Cloneable)
	if !ok {
		return nil, fmt.Errorf("spec: %s builds a non-cloneable channel", s.Mechanism)
	}
	return channel.NewCalibrationCtx(rc, ch, m.Name, s.CalibBits)
}

// Enumerate yields every valid scenario for the given models at the
// paper-default protocol parameters, in canonical order: defense (the
// undefended baseline first, then registry order), then mechanism, then
// threading, then sink, then plain-before-SGX, then
// stealthy-before-fast, then model — the row order of the paper's
// channel tables. Keeping the defense axis outermost means the
// defense-none block is exactly the pre-defense enumeration, so every
// paper-table row keeps its historical index. Every returned spec is
// normalized and valid for its model.
func Enumerate(models ...cpu.Model) []ChannelSpec {
	// Each model's name resolves once, to what Normalize would make it.
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = ChannelSpec{Model: m.Name}.Normalize().Model
	}
	var specs []ChannelSpec
	for _, d := range defense.Names() {
		for _, mech := range []Mechanism{MechanismEviction, MechanismMisalignment, MechanismSlowSwitch} {
			for _, thread := range []Threading{ThreadingNonMT, ThreadingMT} {
				for _, sink := range []Sink{SinkTiming, SinkPower} {
					for _, sgxOn := range []bool{false, true} {
						for _, stealthy := range []bool{true, false} {
							for i, m := range models {
								s := ChannelSpec{
									Model:     names[i],
									Mechanism: mech,
									Threading: thread,
									Sink:      sink,
									SGX:       sgxOn,
									Stealthy:  stealthy,
									Defense:   d,
								}.withDefaults()
								if s.validFor(m).format == "" {
									specs = append(specs, s)
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}
