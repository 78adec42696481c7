// Package leaky is the public API of the Leaky Frontends reproduction: a
// deterministic, cycle-level simulation of the Intel processor frontend
// (MITE, DSB, LSD) together with every attack from "Leaky Frontends:
// Security Vulnerabilities in Processor Frontends" (HPCA 2022) — timing
// and power covert channels, SGX leakage, a frontend Spectre v1 variant,
// microcode patch fingerprinting, and the application-fingerprinting
// side channel.
//
// Quick start:
//
//	m := leaky.Gold6226()
//	ch := leaky.ChannelSpec{Mechanism: leaky.MechanismMisalignment}.Build(m)
//	res := leaky.Transmit(ch, m.Name, "010110")
//	fmt.Println(res.RateKbps, res.ErrorRate)
//
// The full evaluation (every table and figure of the paper) is exposed
// through Experiments and RunExperiments; see cmd/leakyfe for a
// command-line driver. The package holds only the library surface that
// README.md lists; the cmd/ tools import the internal packages
// directly.
package leaky

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/channel"
	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/leakfuzz"
	"repro/internal/runctx"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/spectre"
	"repro/internal/sweep"
	"repro/internal/victim"
)

// Model is a simulated CPU model (Table I).
type Model = cpu.Model

// Models returns the Table I catalog.
func Models() []Model { return cpu.Models() }

// Gold6226 returns the Intel Xeon Gold 6226 model.
func Gold6226() Model { return cpu.Gold6226() }

// XeonE2174G returns the Intel Xeon E-2174G model.
func XeonE2174G() Model { return cpu.XeonE2174G() }

// Channel is a covert channel that transmits one bit at a time.
type Channel = channel.BitChannel

// Result summarizes a covert transmission.
type Result = channel.Result

// Transmit sends a bit-string message over a channel and reports the
// transmission and error rates, calibrating the decode threshold on an
// alternating preamble of DefaultCalibBits bits first. For a different
// preamble length, transmit through the spec instead —
// ChannelSpec{CalibBits: n, ...}.Transmit(message) — since a built
// Channel carries no calibration setting of its own.
func Transmit(ch Channel, modelName, message string) Result {
	return channel.Transmit(ch, modelName, message, DefaultCalibBits)
}

// ChannelSpec is a declarative, JSON/flag-encodable description of one
// covert-channel scenario in the paper's full attack space — mechanism
// x threading x sink x SGX x stealthiness x protocol parameters (d, M,
// p) x model. Validate it, Build it against a Model, Transmit through
// it, or Enumerate the whole valid space; its CacheKey is the
// scenario's identity for the serving daemon. The zero value describes
// the paper's fastest configuration.
type ChannelSpec = spec.ChannelSpec

// Mechanism selects the frontend mechanism a spec'd channel modulates.
type Mechanism = spec.Mechanism

// Threading selects the spec's sender/receiver thread placement.
type Threading = spec.Threading

// ChannelSink selects the spec's measurement surface.
type ChannelSink = spec.Sink

// ChannelSpec field values.
const (
	MechanismEviction     = spec.MechanismEviction
	MechanismMisalignment = spec.MechanismMisalignment
	MechanismSlowSwitch   = spec.MechanismSlowSwitch
	ThreadingNonMT        = spec.ThreadingNonMT
	ThreadingMT           = spec.ThreadingMT
	SinkTiming            = spec.SinkTiming
	SinkPower             = spec.SinkPower
	// DefaultCalibBits is the Transmit calibration-preamble length a
	// zero ChannelSpec.CalibBits normalizes to.
	DefaultCalibBits = spec.DefaultCalibBits
)

// EnumerateSpecs returns every valid covert-channel scenario for the
// model at the paper-default protocol parameters, in the canonical
// order (the row order of the paper's channel tables).
func EnumerateSpecs(m Model) []ChannelSpec { return spec.Enumerate(m) }

// AllChannelSpecs enumerates the valid scenario space across the whole
// Table I catalog.
func AllChannelSpecs() []ChannelSpec { return spec.Enumerate(cpu.Models()...) }

// Alternating returns an n-bit 0101... test message.
func Alternating(n int) string { return channel.Alternating(n) }

// SweepFilter selects a slice of the enumerated scenario space with the
// sweep query grammar — comma-separated clauses like
// "model=xeon*,mech=eviction,thread=mt,d=1..4" (globs for
// model/mech/thread/sink, true|false for sgx/stealthy/contended,
// single values or lo..hi ranges for d/m/p). The zero value selects
// everything; ParseSweepFilter and String round-trip.
type SweepFilter = sweep.Filter

// SweepOptions scales a sweep: message bits, the base seed per-spec
// seeds are split from, calibration override, the p clamp (MaxP) for
// reduced-scale full-space sweeps, and the worker count — which never
// changes a report's bytes.
type SweepOptions = sweep.Options

// SweepRow is one spec's result in a sweep report.
type SweepRow = sweep.Row

// SweepReport is a sweep's aggregate: per-spec rows plus per-variant
// matrices, in canonical enumeration order, byte-identical for every
// worker count.
type SweepReport = sweep.Report

// ParseSweepFilter parses the sweep query grammar; the empty string is
// the whole space. Malformed clauses error before any work.
func ParseSweepFilter(query string) (SweepFilter, error) { return sweep.ParseFilter(query) }

// ExpandSweep materializes the filter's shard of the scenario space:
// the enumerated specs the filter matches, in canonical order, with
// the options' scale overrides applied and per-spec seeds split from
// the base seed — exactly the specs Sweep would run.
func ExpandSweep(f SweepFilter, o SweepOptions) ([]ChannelSpec, error) { return sweep.Expand(f, o) }

// Sweep expands the filter through the enumerated scenario space and
// transmits every matching spec, aggregating the results into a
// report. The filter is a parsed SweepFilter (ParseSweepFilter for the
// query-string form; the zero value sweeps everything), matching
// ExpandSweep so a query is parsed exactly once. Each spec's seed is
// split deterministically from o.Seed by the spec's identity (the same
// rng.SplitSeed discipline the experiment runner uses), so the report
// is a pure function of (filter, options) — never of scheduling or
// worker count.
func Sweep(f SweepFilter, o SweepOptions) (SweepReport, error) {
	return SweepCtx(context.Background(), f, o, nil)
}

// SweepCtx is Sweep with cooperative cancellation and row streaming:
// emit, when non-nil, is called once per row in canonical enumeration
// order as soon as every earlier row has landed. Cancelling ctx
// unwinds in-flight transmissions at their next checkpoint and skips
// unstarted specs; the returned report is partial, with Err set on the
// rows that did not complete and completed rows byte-identical to an
// uncancelled sweep's.
func SweepCtx(ctx context.Context, f SweepFilter, o SweepOptions, emit func(SweepRow)) (SweepReport, error) {
	return sweep.Run(ctx, f, o, nil, emit)
}

// Advisory is a machine-readable per-CPU-model security advisory: the
// model's live channel variants, each registered mitigation's residual
// capacity and performance cost, and the recommended fix, rendered from
// a defense-spanning sweep. It is the JSON the daemon's
// /v1/advisories/{model} serves and leakysweep -advisory prints; Render
// gives the vendor-advisory text form.
type Advisory = sweep.Advisory

// SpectreChannel selects the Spectre exfiltration channel.
type SpectreChannel = spectre.Channel

// Spectre channels.
const (
	SpectreFrontend = spectre.Frontend
	SpectreL1IFR    = spectre.L1IFlushReload
	SpectreL1IPP    = spectre.L1IPrimeProbe
	SpectreMemFR    = spectre.MemFlushReload
	SpectreL1DFR    = spectre.L1DFlushReload
	SpectreL1DLRU   = spectre.L1DLRU
)

// SpectreResult reports a Spectre leak run.
type SpectreResult = spectre.Result

// RunSpectre leaks a secret through the chosen channel and reports
// accuracy and L1 miss-rate footprint (Table VII's metric).
func RunSpectre(ch SpectreChannel, secret []byte) SpectreResult {
	return spectre.NewLab(spectre.DefaultConfig(ch)).Leak(secret)
}

// Workload is a fingerprintable victim workload.
type Workload = victim.Workload

// CNNWorkloads returns the four CNN victims of Figure 11.
func CNNWorkloads() []Workload { return victim.CNNs() }

// FingerprintTrace records the attacker's IPC trace while the victim
// runs on the sibling hardware thread.
func FingerprintTrace(m Model, w Workload, seed uint64) []float64 {
	cfg := fingerprint.DefaultConfig(m)
	cfg.Seed = seed
	return fingerprint.Trace(cfg, w)
}

// ExperimentOpts scales the paper-reproduction experiments.
type ExperimentOpts = experiments.Opts

// ExperimentArtifact describes one registered table/figure reproduction.
type ExperimentArtifact = experiments.Artifact

// ExperimentResult records one artifact run: derived seed, structured
// data, rendered text, and wall-clock timing. Err is set instead of
// data when the run was cancelled before the artifact completed.
type ExperimentResult = experiments.Result

// RunProgress is one progress tick from inside a running artifact.
type RunProgress = runctx.Event

// Experiments returns the registered artifact catalog in paper order.
func Experiments() []ExperimentArtifact { return experiments.Default().Artifacts() }

// RunExperiments resolves name patterns against the artifact registry
// (case-insensitive, shell-style globs, "all") and runs the selection on
// a bounded pool of `workers` goroutines. Each artifact's seed is split
// deterministically from o.Seed by artifact name, so every result's
// data and rendered text are bit-identical for any worker count (only
// the recorded wall-clock timings vary). Unknown patterns error before
// anything runs.
func RunExperiments(patterns []string, o ExperimentOpts, workers int) ([]ExperimentResult, error) {
	return RunExperimentsCtx(context.Background(), patterns, o, workers, nil)
}

// RunExperimentsCtx is RunExperiments with cooperative cancellation and
// progress reporting. Cancelling ctx unwinds in-flight artifacts at
// their next checkpoint and skips unstarted ones; each such artifact's
// result carries Err, while artifacts that completed before the
// cancellation are byte-identical to an uninterrupted run's. progress,
// when non-nil, receives throttle-free ticks from every running
// artifact (it must be safe for concurrent use).
func RunExperimentsCtx(ctx context.Context, patterns []string, o ExperimentOpts, workers int, progress func(RunProgress)) ([]ExperimentResult, error) {
	arts, err := experiments.Default().Select(patterns...)
	if err != nil {
		return nil, err
	}
	rc := runctx.New(ctx, progress)
	return experiments.Runner{Opts: o, Workers: workers}.RunEmitCtx(rc, arts, nil), nil
}

// Server is the artifact-serving daemon core: a deterministic result
// cache, singleflight request collapsing, and a bounded job queue in
// front of the experiment registry. Every run is a pure function of
// (artifact name, normalized options), so cached responses are
// byte-identical to fresh ones and never expire.
type Server = serve.Server

// ServeConfig parameterizes a Server; the zero value serves the default
// catalog with default options and sensible bounds.
type ServeConfig = serve.Config

// NewServer builds the serving layer. Mount NewServer(cfg).Handler() on
// any http.Server, or use Serve for the one-liner.
func NewServer(cfg ServeConfig) *Server { return serve.NewServer(cfg) }

// Serve runs the artifact daemon on addr until the listener fails; see
// cmd/leakyfed for a version with flags. It delegates to ServeCtx with
// a background context, so it never shuts down gracefully — callers
// that need draining pass their own context to ServeCtx.
func Serve(addr string, cfg ServeConfig) error {
	return ServeCtx(context.Background(), addr, cfg)
}

// ServeCtx runs the artifact daemon on addr until ctx is cancelled or
// the listener fails. Cancellation shuts the daemon down gracefully:
// every in-flight simulation is cancelled through Server.Close (each
// unwinds at its next cooperative checkpoint), then the HTTP server
// drains its connections, bounded by a 10s grace period. A graceful
// shutdown returns nil.
func ServeCtx(ctx context.Context, addr string, cfg ServeConfig) error {
	srv := serve.NewServer(cfg)
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Cancel in-flight simulations first so draining is not stuck
	// behind runs nobody will be around to read, then drain.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	// Shutdown makes ListenAndServe return, so errc is owed a value. If
	// the listener had already failed when the cancellation raced in,
	// that failure — not a clean shutdown — is the story.
	if lerr := <-errc; lerr != nil && !errors.Is(lerr, http.ErrServerClosed) {
		return lerr
	}
	return err
}

// LeakTrace is a program's contract trace: its observation windows in
// order. Two executions of the same public code with different secrets
// must produce equal traces, or the secret leaks.
type LeakTrace = contract.Trace

// LeakDivergence is the first point where two contract traces differ —
// a leakage counterexample.
type LeakDivergence = contract.Divergence

// LeakMechanism labels which known channel family a divergence belongs
// to (misalignment, slowswitch, eviction, bpu, or unknown).
type LeakMechanism = contract.Mechanism

// LeakCheck runs a secret-pair on private simulated cores and reports
// the first contract divergence between the probe traces, if any.
func LeakCheck(m Model, seed uint64, pair contract.Pair) (LeakDivergence, bool) {
	return contract.Check(m, seed, contract.DefaultParams(), pair)
}

// ClassifyLeak attributes a leak between two probe traces to a known
// channel family.
func ClassifyLeak(a, b LeakTrace) LeakMechanism { return contract.Classify(a, b) }

// LeakFuzzOptions configures a coverage-guided leakage-fuzzing
// campaign; see cmd/leakfuzz for the command-line driver.
type LeakFuzzOptions = leakfuzz.Options

// LeakFuzzReport summarizes a campaign: executions, coverage, and the
// minimized, classified counterexamples it found.
type LeakFuzzReport = leakfuzz.Report

// LeakFuzz runs one deterministic leakage-fuzzing campaign: same
// options, same report, findings and all.
func LeakFuzz(o LeakFuzzOptions) LeakFuzzReport { return leakfuzz.Run(o) }
