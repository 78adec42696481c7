package sweep

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/spec"
)

// Options scales a sweep. The zero value sweeps the whole Table I
// catalog at the paper-default message length on one worker.
type Options struct {
	// Models is the catalog slice to enumerate; nil means every Table I
	// model. The filter's model glob narrows further.
	Models []cpu.Model
	// Bits is the alternating-message length transmitted per spec;
	// <= 0 means 200 (the experiments default).
	Bits int
	// Seed is the sweep's base seed; each spec's own seed is split from
	// it by the spec's seedless canonical identity (rng.SplitSeed), so
	// per-spec streams are independent and the whole report is a pure
	// function of (filter, options) — never of scheduling. 0 means 1.
	Seed uint64
	// CalibBits overrides every spec's calibration-preamble length;
	// 0 keeps each spec's default. Must be 2..spec.MaxCalibBits.
	CalibBits int
	// MaxP clamps every spec's per-bit repetition parameter p, the
	// sweep-level analog of the repository's -short scale reduction:
	// a full-space sweep with MaxP a few thousand finishes in seconds
	// instead of minutes because the power sink's paper-default
	// p=120000 dominates everything else. A clamp that would make a
	// spec invalid (e.g. below the SGX non-MT floor) is not applied to
	// that spec. 0 keeps every spec's default.
	MaxP int
	// Workers bounds how many specs transmit concurrently; <= 0 means 1.
	// Reports are byte-identical for every worker count.
	Workers int
}

// normalize fills the option defaults.
func (o Options) normalize() Options {
	if len(o.Models) == 0 {
		o.Models = cpu.Models()
	}
	if o.Bits <= 0 {
		o.Bits = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Row is one spec's result in a Report: the spec as it ran (split seed
// included, so the row can be re-run individually), its canonical
// string, and the transmission's headline numbers. Err is set instead
// of the numbers when the sweep was cancelled before the spec
// completed. Result is the full transmission behind the numbers, for
// in-process callers that render more than the headline (the paper's
// channel tables); it is not serialized, so a report's bytes are the
// headline alone.
type Row struct {
	Spec      spec.ChannelSpec `json:"spec"`
	Canonical string           `json:"canonical"`
	RateKbps  float64          `json:"rate_kbps"`
	ErrorRate float64          `json:"error_rate"`
	Err       string           `json:"err,omitempty"`
	Result    channel.Result   `json:"-"`
}

// Group aggregates the completed rows of one channel variant —
// mechanism x threading x sink x SGX x stealthy x defense, across
// models and protocol parameters. Key is a filter query selecting
// exactly this group, so a client can paste it back into a narrower
// sweep.
type Group struct {
	Key      string  `json:"key"`
	N        int     `json:"n"`
	MinRate  float64 `json:"min_rate_kbps"`
	MeanRate float64 `json:"mean_rate_kbps"`
	MaxRate  float64 `json:"max_rate_kbps"`
	MinErr   float64 `json:"min_error_rate"`
	MeanErr  float64 `json:"mean_error_rate"`
	MaxErr   float64 `json:"max_error_rate"`
}

// Report is a sweep's aggregate: per-spec rows plus per-variant
// min/mean/max matrices, both in canonical enumeration order. A report
// embeds no timing or scheduling state, so its bytes (JSON or Render)
// are identical for every worker count; a cancelled sweep's report is
// partial, with Err set on the rows that did not complete.
type Report struct {
	// Filter is the canonical query that selected the shard ("" is the
	// whole space).
	Filter string `json:"filter"`
	// Bits and Seed echo the sweep scale (Seed is the base seed the
	// per-spec seeds were split from).
	Bits int    `json:"bits"`
	Seed uint64 `json:"seed"`
	// Specs counts the expanded shard; Completed the rows without Err.
	Specs     int     `json:"specs"`
	Completed int     `json:"completed"`
	Rows      []Row   `json:"rows"`
	Groups    []Group `json:"groups,omitempty"`
	// Matrix is the attack x defense view: one cell per
	// (mechanism, defense) combination with completed rows, in
	// mechanism-major canonical order. It is the Section XII ablation
	// readout — what capacity survives each mitigation.
	Matrix []MatrixCell `json:"matrix,omitempty"`
}

// MatrixCell aggregates the completed rows of one mechanism x defense
// combination across every other axis. Key is a filter query selecting
// exactly this cell, pasteable back into a narrower sweep.
type MatrixCell struct {
	Key       string `json:"key"`
	Mechanism string `json:"mechanism"`
	Defense   string `json:"defense"`
	N         int    `json:"n"`
	// MeanRate and MeanErr average the cell's raw transmissions.
	MeanRate float64 `json:"mean_rate_kbps"`
	MeanErr  float64 `json:"mean_error_rate"`
	// ResidualKbps is the mean residual capacity: per row, the raw rate
	// discounted by the binary-symmetric-channel capacity factor
	// 1 - H2(error), so a channel a defense drove to coin-flip error
	// contributes ~0 however fast it signals.
	ResidualKbps float64 `json:"residual_kbps"`
}

// RunFunc executes one scenario and returns its transmission. The
// serving daemon wires this to its cache-aware channel-run path;
// Memoized — Direct plus calibration-snapshot reuse, byte-identical to
// it — is the in-process default.
type RunFunc func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error)

// Direct transmits the scenario in-process, with no cache in front.
func Direct(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
	return cs.TransmitCtx(runctx.New(ctx, nil), channel.Alternating(bits))
}

// seedLabel is the spec's identity for seed splitting: its canonical
// encoding without the seed clause, so the split depends on what the
// scenario is, never on what seed it happens to hold.
func seedLabel(s spec.ChannelSpec) string {
	return s.Identity()
}

// Expand materializes the filter's shard of the scenario space: the
// enumerated specs the filter matches, in canonical enumeration order,
// with the options' calibration override and p clamp applied and each
// spec's seed split from the base seed. Every returned spec is
// normalized and valid for its model; the only error is an
// out-of-range CalibBits override.
func Expand(f Filter, o Options) ([]spec.ChannelSpec, error) {
	o = o.normalize()
	if err := f.validate(); err != nil {
		return nil, err
	}
	if o.CalibBits != 0 && (o.CalibBits < 2 || o.CalibBits > spec.MaxCalibBits) {
		return nil, fmt.Errorf("sweep: calib=%d out of range (want 2..%d)", o.CalibBits, spec.MaxCalibBits)
	}
	if o.MaxP < 0 {
		// A negative clamp would fail every per-spec Validate and
		// silently degrade into "no clamp" — a full paper-scale sweep
		// where the caller asked for a reduced one. Reject it instead.
		return nil, fmt.Errorf("sweep: maxp=%d out of range (want >= 0)", o.MaxP)
	}
	var out []spec.ChannelSpec
	for _, s := range spec.Enumerate(o.Models...) {
		if !f.Match(s) {
			continue
		}
		if o.CalibBits != 0 {
			s.CalibBits = o.CalibBits
		}
		if o.MaxP != 0 && s.P > o.MaxP {
			clamped := s
			clamped.P = o.MaxP
			// A clamp below a scenario's validity floor (the SGX non-MT
			// p >= 1000 rule) would reject a spec the filter selected;
			// keep that spec at its floor instead of dropping it.
			if clamped.Validate() == nil {
				s = clamped
			}
		}
		s.Seed = rng.SplitSeed(o.Seed, seedLabel(s))
		out = append(out, s.Normalize())
	}
	return out, nil
}

// Run expands the filter and executes the shard on a bounded worker
// pool, returning the aggregated report. Each spec transmits through
// run (Direct, or a caching layer); emit, when non-nil, is called from
// the calling goroutine once per row in canonical order, as soon as
// every earlier row has also landed — so a caller can stream results
// while the sweep is still running without perturbing their order.
//
// Cancellation is cooperative and per-spec: in-flight transmissions
// unwind at their next checkpoint, unstarted specs are skipped, and
// both yield rows with Err set. Rows that completed before the
// cancellation are identical to an uncancelled sweep's — per-spec seed
// splitting makes every row independent of what ran around it — so Run
// returns the partial report rather than an error.
func Run(ctx context.Context, f Filter, o Options, run RunFunc, emit func(Row)) (Report, error) {
	specs, err := Expand(f, o)
	if err != nil {
		return Report{}, err
	}
	return RunSpecs(ctx, f, o, specs, run, emit), nil
}

// RunSpecs is Run over an already-expanded shard (as returned by
// Expand for the same filter and options), for callers that needed the
// specs up front — the serving daemon probes its cache against the
// shard before deciding admission — so the expansion happens exactly
// once.
func RunSpecs(ctx context.Context, f Filter, o Options, specs []spec.ChannelSpec, run RunFunc, emit func(Row)) Report {
	o = o.normalize()
	if run == nil {
		run = Memoized
	}
	rows := make([]Row, len(specs))
	do := func(i int) {
		cs := specs[i]
		row := Row{Spec: cs, Canonical: cs.String()}
		if err := ctx.Err(); err != nil {
			row.Err = err.Error()
		} else {
			// Per-spec span (a no-op on untraced sweeps): shard index plus
			// the spec's cache identity, so a profile ties each track back
			// to a runnable scenario.
			sctx, span := obs.Start(ctx, "sweep.spec",
				obs.String("spec", row.Canonical),
				obs.String("cachekey", cs.CacheKey()),
				obs.Int("shard_index", i))
			if res, err := run(sctx, cs, o.Bits); err != nil {
				row.Err = err.Error()
				span.SetAttr("err", row.Err)
			} else {
				row.RateKbps, row.ErrorRate, row.Result = res.RateKbps, res.ErrorRate, res
			}
			span.End()
		}
		rows[i] = row
	}
	runctx.Ordered(len(specs), o.Workers, do, func(i int) {
		if emit != nil {
			emit(rows[i])
		}
	})
	return NewReport(f, o, rows)
}

// Err reports why a sweep run under ctx left rows incomplete: nil when
// every row completed, ctx's own error once ctx is done (so a caller can
// tell a cancellation from a failure), and otherwise the first failed
// row's error, naming its spec. A caller that must not publish a partial
// report — a paper table, an advisory — returns this error instead.
func (r Report) Err(ctx context.Context) error {
	if r.Completed == r.Specs {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if row.Err != "" {
			return fmt.Errorf("sweep incomplete: %s: %s", row.Canonical, row.Err)
		}
	}
	return nil
}

// NewReport aggregates rows (in canonical enumeration order) into a
// Report. It is exported so a serving layer that ran the specs itself
// can aggregate identically to Run.
func NewReport(f Filter, o Options, rows []Row) Report {
	o = o.normalize()
	r := Report{Filter: f.String(), Bits: o.Bits, Seed: o.Seed, Specs: len(rows), Rows: rows}
	byKey := map[string]int{}
	for _, row := range rows {
		if row.Err != "" {
			continue
		}
		r.Completed++
		key := groupKey(row.Spec)
		i, ok := byKey[key]
		if !ok {
			i = len(r.Groups)
			byKey[key] = i
			r.Groups = append(r.Groups, Group{Key: key, MinRate: row.RateKbps, MaxRate: row.RateKbps,
				MinErr: row.ErrorRate, MaxErr: row.ErrorRate})
		}
		g := &r.Groups[i]
		g.N++
		g.MinRate = min(g.MinRate, row.RateKbps)
		g.MaxRate = max(g.MaxRate, row.RateKbps)
		g.MeanRate += row.RateKbps
		g.MinErr = min(g.MinErr, row.ErrorRate)
		g.MaxErr = max(g.MaxErr, row.ErrorRate)
		g.MeanErr += row.ErrorRate
	}
	for i := range r.Groups {
		r.Groups[i].MeanRate /= float64(r.Groups[i].N)
		r.Groups[i].MeanErr /= float64(r.Groups[i].N)
	}
	r.Matrix = newMatrix(rows)
	return r
}

// newMatrix aggregates completed rows into the attack x defense matrix,
// in mechanism-major canonical order (enumeration mechanism order by
// defense registry order), skipping empty cells. Accumulation follows
// row order, so the floats — like everything else in a Report — are
// byte-identical for every worker count.
func newMatrix(rows []Row) []MatrixCell {
	type cellKey struct{ mech, def string }
	cells := map[cellKey]*MatrixCell{}
	for _, row := range rows {
		if row.Err != "" {
			continue
		}
		k := cellKey{string(row.Spec.Mechanism), row.Spec.Defense}
		c, ok := cells[k]
		if !ok {
			c = &MatrixCell{
				Key:       Filter{Mechanism: k.mech, Defense: k.def}.String(),
				Mechanism: k.mech,
				Defense:   k.def,
			}
			cells[k] = c
		}
		c.N++
		c.MeanRate += row.RateKbps
		c.MeanErr += row.ErrorRate
		c.ResidualKbps += row.RateKbps * (1 - binaryEntropy(row.ErrorRate))
	}
	var out []MatrixCell
	for _, mech := range []spec.Mechanism{spec.MechanismEviction, spec.MechanismMisalignment, spec.MechanismSlowSwitch} {
		for _, def := range defense.Names() {
			c, ok := cells[cellKey{string(mech), def}]
			if !ok {
				continue
			}
			c.MeanRate /= float64(c.N)
			c.MeanErr /= float64(c.N)
			c.ResidualKbps /= float64(c.N)
			out = append(out, *c)
		}
	}
	return out
}

// binaryEntropy is H2(e), the binary entropy in bits, clamped to the
// meaningful [0,1] error domain. 1 - H2(e) is the capacity factor of a
// binary symmetric channel: 1 at e=0 or e=1 (a perfectly inverted
// channel still carries every bit), 0 at the e=0.5 coin flip.
func binaryEntropy(e float64) float64 {
	if e <= 0 || e >= 1 {
		return 0
	}
	return -e*math.Log2(e) - (1-e)*math.Log2(1-e)
}

// groupKey names a row's channel variant as a filter query, so every
// group in a report can be pasted back as a narrower sweep. Defense is
// part of the variant: a defended row must never average into its
// undefended twin's group.
func groupKey(s spec.ChannelSpec) string {
	return Filter{
		Mechanism: string(s.Mechanism),
		Threading: string(s.Threading),
		Sink:      string(s.Sink),
		SGX:       triOf(s.SGX),
		Stealthy:  triOf(s.Stealthy),
		Defense:   s.Defense,
	}.String()
}

func triOf(v bool) Tri {
	if v {
		return TriTrue
	}
	return TriFalse
}

// Render writes the report as text: the scale line, per-spec rows, and
// the per-variant matrix. Like the JSON form it embeds no timing, so
// the bytes are identical for every worker count.
func (r Report) Render() string {
	var b strings.Builder
	filter := r.Filter
	if filter == "" {
		filter = "(all)"
	}
	fmt.Fprintf(&b, "sweep: filter=%s bits=%d seed=%d specs=%d completed=%d\n",
		filter, r.Bits, r.Seed, r.Specs, r.Completed)
	for _, row := range r.Rows {
		if row.Err != "" {
			fmt.Fprintf(&b, "  %-110s did not complete: %s\n", row.Canonical, row.Err)
			continue
		}
		fmt.Fprintf(&b, "  %-110s rate=%9.2f Kbps  err=%6.2f%%\n", row.Canonical, row.RateKbps, 100*row.ErrorRate)
	}
	if len(r.Groups) > 0 {
		fmt.Fprintf(&b, "per-variant matrix (min/mean/max over completed rows):\n")
		fmt.Fprintf(&b, "  %-70s %2s %29s %26s\n", "variant", "n", "rate (Kbps)", "error")
		for _, g := range r.Groups {
			fmt.Fprintf(&b, "  %-70s %2d %9.2f/%9.2f/%9.2f %7.2f%%/%7.2f%%/%7.2f%%\n",
				g.Key, g.N, g.MinRate, g.MeanRate, g.MaxRate, 100*g.MinErr, 100*g.MeanErr, 100*g.MaxErr)
		}
	}
	if len(r.Matrix) > 0 {
		fmt.Fprintf(&b, "attack x defense residual matrix (mean over completed rows):\n")
		fmt.Fprintf(&b, "  %-40s %3s %12s %8s %15s\n", "cell", "n", "rate (Kbps)", "error", "residual (Kbps)")
		for _, c := range r.Matrix {
			fmt.Fprintf(&b, "  %-40s %3d %12.2f %7.2f%% %15.2f\n",
				c.Key, c.N, c.MeanRate, 100*c.MeanErr, c.ResidualKbps)
		}
	}
	return b.String()
}
