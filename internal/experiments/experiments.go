// Package experiments regenerates every table and figure of the paper's
// evaluation. Each artifact is described by an Artifact entry in the
// Default registry (name, paper reference, run function returning
// structured data plus a formatted table matching the paper's layout),
// and a Runner executes selected artifacts on a bounded worker pool with
// per-artifact seed derivation, so parallel runs are bit-identical to
// serial ones. The typed per-artifact functions (TableI .. Figure12)
// remain the implementations behind the registry. The cmd/leakyfe binary
// and the repository's benchmark suite are thin wrappers around this
// package.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/spectre"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/ucode"
	"repro/internal/victim"
)

// Opts sets the experiment scale. Defaults reproduce the paper's shapes
// in seconds; raise Bits for tighter error-rate estimates.
type Opts struct {
	Bits    int    // covert-channel message length
	Seed    uint64 // deterministic seed
	Samples int    // fingerprint trace length (Figures 11/12); 0 means the paper's 100
}

// DefaultOpts returns the standard scale.
func DefaultOpts() Opts { return Opts{Bits: 200, Seed: 1, Samples: 100} }

// Normalize returns the options with every unset (zero or negative)
// field replaced by its default, so that any two Opts values describing
// the same run compare equal: Opts{}.Normalize() == DefaultOpts().
// Every artifact function normalizes its options on entry, and the
// serving layer's cache key is computed over normalized options, which
// is what lets Opts{} and DefaultOpts() share one cache entry.
func (o Opts) Normalize() Opts {
	if o.Bits <= 0 {
		o.Bits = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Samples <= 0 {
		o.Samples = 100
	}
	return o
}

// TableI renders the CPU model catalog (Table I).
func TableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Specifications of the tested Intel CPU models\n")
	fmt.Fprintf(&b, "%-14s %-13s %6s %8s %6s %5s %5s %4s\n",
		"Model", "Microarch", "Cores", "Threads", "GHz", "LSD", "SGX", "HT")
	for _, m := range cpu.Models() {
		lsd := "64"
		if !m.LSDEnabled {
			lsd = "off"
		}
		fmt.Fprintf(&b, "%-14s %-13s %6d %8d %6.1f %5s %5v %4v\n",
			m.Name, m.Microarch, m.Cores, m.Threads, m.FreqGHz, lsd, m.SGX, m.HyperThreading)
	}
	return b.String()
}

// Figure2Data holds per-path timing samples for the histogram.
type Figure2Data struct {
	LSD, DSB, MITE []float64
}

// Figure2 reproduces the per-path timing histogram (Figure 2) on the
// Gold 6226: per-pass timings of an 8-block chain streaming from the
// LSD, the same chain with the LSD disabled (DSB), and a 9-block
// same-set chain that thrashes into MITE+DSB.
func Figure2(rc RunCtx, o Opts) (Figure2Data, string, error) {
	o = o.Normalize()
	const passes = 400
	run := func(path string, model cpu.Model, blocks []*isa.Block) ([]float64, error) {
		core := cpu.NewCore(model, o.Seed)
		core.Enqueue(0, isa.NewLoopStream(blocks, 10), nil) // warmup
		core.RunUntilIdle(10_000_000)
		out := make([]float64, passes)
		for i := range out {
			if err := rc.Step("timing "+path, i, passes); err != nil {
				return nil, err
			}
			out[i] = core.RunTimedTight(0, isa.NewLoopStream(blocks, 8))
		}
		return out, nil
	}
	g := cpu.Gold6226()
	var d Figure2Data
	var err error
	if d.LSD, err = run("LSD", g, isa.MixChain(3, 8, true)); err != nil {
		return Figure2Data{}, "", err
	}
	if d.DSB, err = run("DSB", g.WithLSD(false), isa.MixChain(3, 8, true)); err != nil {
		return Figure2Data{}, "", err
	}
	if d.MITE, err = run("MITE+DSB", g, isa.MixChain(3, 9, true)); err != nil {
		return Figure2Data{}, "", err
	}
	lo := stats.Min(d.DSB) - 20
	hi := stats.Max(d.MITE) + 20
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: frontend path timing histogram (Gold 6226, cycles per 8 chain passes)\n")
	for _, row := range []struct {
		name string
		xs   []float64
	}{{"DSB", d.DSB}, {"LSD", d.LSD}, {"MITE+DSB", d.MITE}} {
		h := stats.NewHistogram(lo, hi, 30)
		for _, x := range row.xs {
			h.Add(x)
		}
		fmt.Fprintf(&b, "\n%s delivery (mean %.0f):\n%s", row.name, stats.Mean(row.xs), h.Render(40))
	}
	return d, b.String(), nil
}

// Figure4Row holds one issue pattern's counters, extrapolated to the
// paper's 800M loop iterations.
type Figure4Row struct {
	Pattern       string
	MITEUOps      float64
	DSBUOps       float64
	LCPStallCyc   float64
	SwitchPenalty float64
	IPC           float64
}

// Figure4 reproduces the mixed- vs ordered-issue LCP experiment
// (Figure 4) by simulating a steady-state window and scaling the
// counters to 800M iterations. Each issue pattern is one indivisible
// simulation window, so the run checkpoints between the two patterns.
func Figure4(rc RunCtx, o Opts) ([2]Figure4Row, string, error) {
	o = o.Normalize()
	const simIters = 3000
	const paperIters = 800e6
	run := func(mixed bool, name string) Figure4Row {
		core := cpu.NewCore(cpu.Gold6226(), o.Seed)
		blocks := []*isa.Block{isa.LCPBlock(0x2000, 16, mixed)}
		isa.ChainLoop(blocks)
		core.Enqueue(0, isa.NewLoopStream(blocks, 200), nil) // warmup
		core.RunUntilIdle(10_000_000)
		c0 := core.Counters(0)
		cyc0 := core.Cycle()
		core.Enqueue(0, isa.NewLoopStream(blocks, simIters), nil)
		core.RunUntilIdle(100_000_000)
		d := core.Counters(0).Sub(c0)
		cycles := float64(core.Cycle() - cyc0)
		scale := paperIters / simIters
		return Figure4Row{
			Pattern:       name,
			MITEUOps:      float64(d.UOpsMITE) * scale,
			DSBUOps:       float64(d.UOpsDSB) * scale,
			LCPStallCyc:   d.LCPStallCycles * scale,
			SwitchPenalty: d.SwitchCycles * scale,
			IPC:           float64(d.UOps()) / cycles,
		}
	}
	var rows [2]Figure4Row
	if err := rc.Step("LCP issue patterns", 0, 2); err != nil {
		return [2]Figure4Row{}, "", err
	}
	rows[0] = run(true, "Mixed Issue")
	if err := rc.Step("LCP issue patterns", 1, 2); err != nil {
		return [2]Figure4Row{}, "", err
	}
	rows[1] = run(false, "Ordered Issue")
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: LCP issue patterns, counters scaled to 800M iterations (Gold 6226)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %14s %14s %6s\n", "Pattern", "MITE uops", "DSB uops", "LCP stall cyc", "switch cyc", "IPC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.2e %12.2e %14.2e %14.2e %6.2f\n",
			r.Pattern, r.MITEUOps, r.DSBUOps, r.LCPStallCyc, r.SwitchPenalty, r.IPC)
	}
	return rows, b.String(), nil
}

// A shard declares one of the paper's channel tables as a slice of the
// undefended scenario space, in the terms leakysweep and POST
// /v1/sweeps take: the models the table enumerates, a sweep filter
// over their specs, and the override that sets the table's protocol on
// each spec. Every override also pins the spec's seed to the
// artifact's, where a sweep would split one seed per spec.
type shard struct {
	models   []cpu.Model
	filter   string
	override func(*spec.ChannelSpec)
}

// expand materializes the shard in canonical enumeration order, the
// paper's row order. It enumerates the shard's own models only:
// enumerating the catalog and narrowing by model would cost a
// one-model table four times its enumeration.
func (sh shard) expand() (sweep.Filter, []spec.ChannelSpec, error) {
	f, err := sweep.ParseFilter(sh.filter)
	if err != nil {
		return sweep.Filter{}, nil, err
	}
	specs, err := sweep.Expand(f, sweep.Options{Models: sh.models})
	if err != nil {
		return sweep.Filter{}, nil, err
	}
	for i := range specs {
		sh.override(&specs[i])
	}
	return f, specs, nil
}

// run expands the shard and transmits message over each of its specs
// through runShard, returning the rows' full results.
func (sh shard) run(rc RunCtx, stage, message string) ([]channel.Result, error) {
	f, specs, err := sh.expand()
	if err != nil {
		return nil, err
	}
	rep, err := runShard(rc, stage, f, sweep.Options{Models: sh.models}, specs, message, nil)
	res := make([]channel.Result, len(rep.Rows))
	for i, row := range rep.Rows {
		res[i] = row.Result
	}
	return res, err
}

// runShard is the one path from a shard of the scenario space to table
// rows: it runs specs (f's expansion under so) serially through
// sweep.RunSpecs, transmitting message over each spec inline, or
// through memo's calibration snapshots when the table sends several
// messages over one spec. Each row ticks stage's progress and
// transmits under the row's own context, so the channel's spans nest
// under the row's sweep.spec span. A report cut short (cancelled, or a
// failed row) returns its error.
func runShard(rc RunCtx, stage string, f sweep.Filter, so sweep.Options, specs []spec.ChannelSpec, message string, memo *sweep.Memo) (sweep.Report, error) {
	so.Workers = 1 // serial, so done counts rows in order
	done := 0
	run := func(ctx context.Context, cs spec.ChannelSpec, _ int) (channel.Result, error) {
		if err := rc.Step(stage, done, len(specs)); err != nil {
			return channel.Result{}, err
		}
		done++
		if memo != nil {
			return memo.Transmit(rc.WithContext(ctx), cs, message)
		}
		return cs.TransmitCtx(rc.WithContext(ctx), message)
	}
	rep := sweep.RunSpecs(rc.Context(), f, so, specs, run, nil)
	return rep, rep.Err(rc.Context())
}

// mtEviction is the MT eviction slice of the three hyper-threaded
// machines, the channel of Table II and Figure 8; each sets its own way
// count d and a 30-bit calibration preamble.
var mtEviction = shard{
	models: []cpu.Model{cpu.Gold6226(), cpu.XeonE2174G(), cpu.XeonE2286G()},
	filter: "mech=eviction,thread=mt,sgx=false,defense=none",
}

// TableII reproduces the message-pattern study (Table II): the MT
// eviction channel at d=1 for all-0s, all-1s, alternating, and random
// messages on the three hyper-threaded machines, with the contended-
// sender protocol the paper uses at d=1.
func TableII(rc RunCtx, o Opts) ([]channel.Result, string, error) {
	o = o.Normalize()
	sh := mtEviction
	sh.override = func(cs *spec.ChannelSpec) {
		// A single-way receiver needs the contended-sender protocol:
		// the eviction signal of one way is too small on its own.
		cs.D, cs.Contended, cs.CalibBits, cs.Seed = 1, true, 30, o.Seed
	}
	f, specs, err := sh.expand()
	if err != nil {
		return nil, "", err
	}
	patterns := []struct {
		name string
		gen  func(int) string
	}{
		{"All 0s", channel.AllZeros},
		{"All 1s", channel.AllOnes},
		{"Alternating", channel.Alternating},
		{"Random", func(n int) string { return channel.Random(n, rng.New(o.Seed)) }},
	}
	var results []channel.Result
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: MT Eviction-Based channel, d=1, by message pattern\n")
	fmt.Fprintf(&b, "%-12s %-14s %12s %10s\n", "Pattern", "Model", "Rate (Kbps)", "Error")
	// The calibration preamble depends only on the spec, never on the
	// message, so the four patterns share one calibration per spec.
	memo := sweep.NewMemo()
	for _, p := range patterns {
		rep, err := runShard(rc, "pattern "+p.name, f, sweep.Options{Models: sh.models}, specs, p.gen(o.Bits), memo)
		if err != nil {
			return nil, "", err
		}
		for _, row := range rep.Rows {
			res := row.Result
			res.Channel = p.name
			results = append(results, res)
			fmt.Fprintf(&b, "%-12s %-14s %12.2f %9.2f%%\n", p.name, res.Model, res.RateKbps, 100*res.ErrorRate)
		}
	}
	return results, b.String(), nil
}

// TableIII reproduces the main covert-channel matrix (Table III): all
// eviction- and misalignment-based channels on all four machines. The
// canonical enumeration order is the paper's row order (per mechanism:
// non-MT stealthy, non-MT fast, then MT).
func TableIII(rc RunCtx, o Opts) ([]channel.Result, string, error) {
	o = o.Normalize()
	res, err := shard{
		models:   cpu.Models(),
		filter:   "mech=[em]*,sink=timing,sgx=false,defense=none",
		override: func(cs *spec.ChannelSpec) { cs.Seed = o.Seed },
	}.run(rc, "channel matrix", channel.Alternating(o.Bits))
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: covert-channel transmission and error rates (alternating message)\n")
	fmt.Fprintf(&b, "%-40s %-14s %12s %10s\n", "Channel", "Model", "Rate (Kbps)", "Error")
	for _, r := range res {
		fmt.Fprintf(&b, "%-40s %-14s %12.2f %9.2f%%\n", r.Channel, r.Model, r.RateKbps, 100*r.ErrorRate)
	}
	return res, b.String(), nil
}

// TableIV reproduces the slow-switch channel rows (Table IV).
func TableIV(rc RunCtx, o Opts) ([]channel.Result, string, error) {
	o = o.Normalize()
	res, err := shard{
		models:   []cpu.Model{cpu.Gold6226(), cpu.XeonE2288G()},
		filter:   "mech=slowswitch,defense=none",
		override: func(cs *spec.ChannelSpec) { cs.Seed = o.Seed },
	}.run(rc, "slow-switch channel", channel.Alternating(o.Bits))
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: Non-MT Slow-Switch-Based channel (alternating message)\n")
	fmt.Fprintf(&b, "%-14s %12s %10s\n", "Model", "Rate (Kbps)", "Error")
	for _, r := range res {
		fmt.Fprintf(&b, "%-14s %12.2f %9.2f%%\n", r.Model, r.RateKbps, 100*r.ErrorRate)
	}
	return res, b.String(), nil
}

// TableV reproduces the power channels (Table V) on the Gold 6226, with
// a 6-bit calibration preamble. Bits default lower because each power
// bit needs >100k iterations.
func TableV(rc RunCtx, o Opts) ([]channel.Result, string, error) {
	o = o.Normalize()
	res, err := shard{
		models:   []cpu.Model{cpu.Gold6226()},
		filter:   "sink=power,defense=none",
		override: func(cs *spec.ChannelSpec) { cs.CalibBits, cs.Seed = 6, o.Seed },
	}.run(rc, "power channels", channel.Alternating(max(o.Bits/12, 8)))
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: Non-MT power channels, Gold 6226, d=6 (RAPL receiver)\n")
	fmt.Fprintf(&b, "%-26s %12s %10s\n", "Channel", "Rate (Kbps)", "Error")
	for _, r := range res {
		fmt.Fprintf(&b, "%-26s %12.2f %9.2f%%\n", r.Channel, r.RateKbps, 100*r.ErrorRate)
	}
	return res, b.String(), nil
}

// TableVI reproduces the SGX channel matrix (Table VI) on the three
// SGX-capable machines, with the paper's shorter calibration preambles
// (enclave bits are expensive).
func TableVI(rc RunCtx, o Opts) ([]channel.Result, string, error) {
	o = o.Normalize()
	res, err := shard{
		models: []cpu.Model{cpu.XeonE2174G(), cpu.XeonE2286G(), cpu.XeonE2288G()},
		filter: "sgx=true,defense=none",
		override: func(cs *spec.ChannelSpec) {
			cs.CalibBits, cs.Seed = 10, o.Seed
			if cs.Threading == spec.ThreadingMT {
				cs.CalibBits = 8
			}
		},
	}.run(rc, "SGX matrix", channel.Alternating(max(o.Bits/4, 12)))
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: SGX covert channels (alternating message)\n")
	fmt.Fprintf(&b, "%-40s %-14s %12s %10s\n", "Channel", "Model", "Rate (Kbps)", "Error")
	for _, r := range res {
		fmt.Fprintf(&b, "%-40s %-14s %12.2f %9.2f%%\n", r.Channel, r.Model, r.RateKbps, 100*r.ErrorRate)
	}
	return res, b.String(), nil
}

// TableVII reproduces the Spectre v1 L1 miss-rate comparison (Table VII).
func TableVII(rc RunCtx, o Opts) ([]spectre.Result, string, error) {
	o = o.Normalize()
	secret := []byte{3, 17, 29, 8, 0, 31, 12, 22}
	channels := []spectre.Channel{
		spectre.MemFlushReload, spectre.L1DFlushReload, spectre.L1DLRU,
		spectre.L1IFlushReload, spectre.L1IPrimeProbe, spectre.Frontend,
	}
	var results []spectre.Result
	var b strings.Builder
	fmt.Fprintf(&b, "Table VII: Spectre v1 covert channels, L1 miss rates (Gold 6226)\n")
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "Channel", "L1 miss rate", "Accuracy")
	for i, ch := range channels {
		if err := rc.Step("spectre channels", i, len(channels)); err != nil {
			return nil, "", err
		}
		cfg := spectre.DefaultConfig(ch)
		cfg.Seed = o.Seed
		res, err := spectre.NewLab(cfg).LeakCtx(rc, secret)
		if err != nil {
			return nil, "", err
		}
		results = append(results, res)
		fmt.Fprintf(&b, "%-10v %13.2f%% %9.0f%%\n", ch, 100*res.L1MissRate, 100*res.Accuracy)
	}
	return results, b.String(), nil
}

// Figure8Point is one d-sweep sample.
type Figure8Point struct {
	Model     string
	D         int
	RateKbps  float64
	ErrorRate float64
	Effective float64 // rate x (1 - error)
}

// Figure8 reproduces the MT eviction d-sweep (Figure 8) on the three
// hyper-threaded machines: the Table II shard at every way count d.
func Figure8(rc RunCtx, o Opts) ([]Figure8Point, string, error) {
	o = o.Normalize()
	sh := mtEviction
	sh.override = func(cs *spec.ChannelSpec) { cs.CalibBits, cs.Seed = 30, o.Seed }
	f, base, err := sh.expand()
	if err != nil {
		return nil, "", err
	}
	var specs []spec.ChannelSpec
	for _, cs := range base {
		for d := 1; d <= 8; d++ {
			cs.D = d
			specs = append(specs, cs)
		}
	}
	rep, err := runShard(rc, "d sweep", f, sweep.Options{Models: sh.models}, specs, channel.Alternating(max(o.Bits/2, 40)), nil)
	if err != nil {
		return nil, "", err
	}
	var pts []Figure8Point
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: MT Eviction-Based channel vs receiver way count d\n")
	fmt.Fprintf(&b, "%-14s %3s %12s %10s %12s\n", "Model", "d", "Rate (Kbps)", "Error", "Effective")
	for _, row := range rep.Rows {
		res := row.Result
		p := Figure8Point{Model: res.Model, D: row.Spec.D, RateKbps: res.RateKbps,
			ErrorRate: res.ErrorRate, Effective: res.RateKbps * (1 - res.ErrorRate)}
		pts = append(pts, p)
		fmt.Fprintf(&b, "%-14s %3d %12.2f %9.2f%% %12.2f\n", p.Model, p.D, p.RateKbps, 100*p.ErrorRate, p.Effective)
	}
	return pts, b.String(), nil
}

// Figure9Data holds per-path power samples.
type Figure9Data struct {
	LSD, DSB, MITE []float64
}

// Figure9 reproduces the per-path power histogram (Figure 9).
func Figure9(rc RunCtx, o Opts) (Figure9Data, string, error) {
	o = o.Normalize()
	const windows = 300
	run := func(path string, model cpu.Model, blocks []*isa.Block) ([]float64, error) {
		core := cpu.NewCore(model, o.Seed)
		r := rng.New(o.Seed).Fork(11)
		core.Enqueue(0, isa.NewLoopStream(blocks, 20), nil)
		core.RunUntilIdle(10_000_000)
		out := make([]float64, 0, windows)
		for i := 0; i < windows; i++ {
			if err := rc.Step("power "+path, i, windows); err != nil {
				return nil, err
			}
			e0, c0 := core.PM.TrueEnergy(), core.Cycle()
			core.Enqueue(0, isa.NewLoopStream(blocks, 60), nil)
			core.RunUntilIdle(10_000_000)
			w := power.AvgWatts(core.PM.TrueEnergy()-e0, core.Cycle()-c0)
			out = append(out, w+r.NormScaled(0, 0.6))
		}
		return out, nil
	}
	g := cpu.Gold6226()
	var d Figure9Data
	var err error
	if d.LSD, err = run("LSD", g, isa.MixChain(3, 8, true)); err != nil {
		return Figure9Data{}, "", err
	}
	if d.DSB, err = run("DSB", g.WithLSD(false), isa.MixChain(3, 8, true)); err != nil {
		return Figure9Data{}, "", err
	}
	if d.MITE, err = run("MITE+DSB", g, isa.MixChain(3, 9, true)); err != nil {
		return Figure9Data{}, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: package power by frontend path (Gold 6226)\n")
	for _, row := range []struct {
		name string
		xs   []float64
	}{{"LSD", d.LSD}, {"DSB", d.DSB}, {"MITE+DSB", d.MITE}} {
		h := stats.NewHistogram(44, 70, 26)
		for _, x := range row.xs {
			h.Add(x)
		}
		fmt.Fprintf(&b, "\n%s delivery (mean %.1f W):\n%s", row.name, stats.Mean(row.xs), h.Render(40))
	}
	return d, b.String(), nil
}

// Figure10 reproduces the microcode patch fingerprinting measurements.
// Each observation is one indivisible simulation, so the run
// checkpoints between patches and before the timing detectors.
func Figure10(rc RunCtx, o Opts) ([2]ucode.Observation, string, error) {
	o = o.Normalize()
	var obs [2]ucode.Observation
	for i, p := range [2]ucode.Patch{ucode.Patch1, ucode.Patch2} {
		if err := rc.Step("observe patches", i, 3); err != nil {
			return [2]ucode.Observation{}, "", err
		}
		obs[i] = ucode.Observe(cpu.Gold6226(), p, o.Seed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: microcode patch fingerprinting (Gold 6226)\n")
	fmt.Fprintf(&b, "%-38s %14s %14s %10s %10s\n", "Patch", "small cyc/blk", "large cyc/blk", "small W", "large W")
	for _, ob := range obs {
		fmt.Fprintf(&b, "%-38s %14.2f %14.2f %10.1f %10.1f\n",
			ob.Patch, ob.SmallLoopCycles, ob.LargeLoopCycles, ob.SmallLoopWatts, ob.LargeLoopWatts)
	}
	if err := rc.Step("observe patches", 2, 3); err != nil {
		return [2]ucode.Observation{}, "", err
	}
	t1 := ucode.DetectByTiming(cpu.Gold6226(), ucode.Patch1, o.Seed)
	t2 := ucode.DetectByTiming(cpu.Gold6226(), ucode.Patch2, o.Seed)
	fmt.Fprintf(&b, "timing detector: patch1 -> %v, patch2 -> %v\n", t1, t2)
	return obs, b.String(), nil
}

// Figure11 reproduces the attacker IPC traces against the four CNN
// victims.
func Figure11(rc RunCtx, o Opts) (map[string][]float64, string, error) {
	o = o.Normalize()
	cfg := fingerprint.DefaultConfig(cpu.Gold6226())
	cfg.Seed = o.Seed
	cfg.Samples = o.Samples
	base := fingerprint.BaselineIPC(cfg)
	traces := map[string][]float64{}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: attacker IPC traces per CNN victim (baseline solo IPC %.2f)\n", base)
	for _, w := range victim.CNNs() {
		tr, err := fingerprint.TraceCtx(rc, cfg, w)
		if err != nil {
			return nil, "", err
		}
		traces[w.Name] = tr
		fmt.Fprintf(&b, "%-12s mean=%.2f min=%.2f max=%.2f stddev=%.3f\n",
			w.Name, stats.Mean(tr), stats.Min(tr), stats.Max(tr), stats.StdDev(tr))
	}
	return traces, b.String(), nil
}

// TableXII reproduces the Section XII defense ablation as an attack x
// defense residual matrix on the Gold 6226: the model's whole scenario
// space — every mechanism, threading, sink, and registered defense —
// swept at a reduced scale (short calibration, the power p clamped) and
// aggregated per (mechanism x defense) cell. Each cell's key is a
// filter query pasteable into leakysweep or POST /v1/sweeps.
func TableXII(rc RunCtx, o Opts) (sweep.Report, string, error) {
	o = o.Normalize()
	bits := max(o.Bits/2, 12)
	g := cpu.Gold6226()
	f := sweep.AdvisoryFilter(g.Name)
	so := sweep.Options{Models: []cpu.Model{g}, Bits: bits, Seed: o.Seed, CalibBits: 6, MaxP: 2000}
	specs, err := sweep.Expand(f, so)
	if err != nil {
		return sweep.Report{}, "", err
	}
	rep, err := runShard(rc, "defense ablation", f, so, specs, channel.Alternating(bits), nil)
	if err != nil {
		return sweep.Report{}, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section XII: defense ablation, attack x defense residual matrix (Gold 6226)\n")
	fmt.Fprintf(&b, "%-40s %3s %12s %10s %15s\n", "Cell", "n", "Rate (Kbps)", "Error", "Residual (Kbps)")
	for _, c := range rep.Matrix {
		fmt.Fprintf(&b, "%-40s %3d %12.2f %9.2f%% %15.2f\n",
			c.Key, c.N, c.MeanRate, 100*c.MeanErr, c.ResidualKbps)
	}
	return rep, b.String(), nil
}

// AdvisoryXII renders the Gold 6226 security advisory (Section XII):
// the TableXII defense-ablation sweep reduced to affected
// configurations, per-mitigation residual capacity and performance
// cost, and a recommended fix. The serving daemon exposes the same
// rendering for every model at GET /v1/advisories/{model}.
func AdvisoryXII(rc RunCtx, o Opts) (sweep.Advisory, string, error) {
	rep, _, err := TableXII(rc, o)
	if err != nil {
		return sweep.Advisory{}, "", err
	}
	adv, err := sweep.NewAdvisory(rep, cpu.Gold6226())
	if err != nil {
		return sweep.Advisory{}, "", err
	}
	return adv, adv.Render(), nil
}

// Figure12Data pairs the two distance studies for structured output.
type Figure12Data struct {
	CNN       fingerprint.Distances
	Geekbench fingerprint.Distances
}

// Figure12 reproduces the inter/intra distance study for the CNNs plus
// the Geekbench suite statistic of Section XI-B.
func Figure12(rc RunCtx, o Opts) (cnn, gb fingerprint.Distances, rendered string, err error) {
	o = o.Normalize()
	cfg := fingerprint.DefaultConfig(cpu.Gold6226())
	cfg.Seed = o.Seed
	cfg.Samples = o.Samples
	if cnn, err = fingerprint.StudyCtx(rc, cfg, victim.CNNs()); err != nil {
		return fingerprint.Distances{}, fingerprint.Distances{}, "", err
	}
	if gb, err = fingerprint.StudyCtx(rc, cfg, victim.Geekbench()); err != nil {
		return fingerprint.Distances{}, fingerprint.Distances{}, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 / Section XI-B: fingerprinting distances\n\n")
	fmt.Fprintf(&b, "CNN distance matrix:\n%s\n", cnn.Matrix)
	fmt.Fprintf(&b, "CNN:       intra=%.3f  inter=%.3f\n", cnn.Intra, cnn.Inter)
	fmt.Fprintf(&b, "Geekbench: intra=%.3f  inter=%.3f\n", gb.Intra, gb.Inter)
	return cnn, gb, b.String(), nil
}
