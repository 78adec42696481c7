// Command leakybench is the repository's end-to-end benchmark. One
// invocation runs one workload — the paper's artifacts, a scenario-space
// sweep, a Zipf request stream against the leakyfed daemon, or a batch
// of leakage-fuzzing campaigns — for a fixed time budget, checks every
// output, and prints one "workload metric value unit" line per metric
// followed by a JSON summary line:
//
//	bash bench/run.sh --workload sweep-space --seed 1 --seconds 30 --trace 0
//
// Every repetition runs in a fresh child process (this same binary, with
// --child), because the sweep engine's calibration memo is process-wide:
// an in-process second repetition would start warm. --trace 0 repeats
// the workload while the budget lasts and reports the end-to-end
// metrics; --trace 1 runs one untraced and one traced repetition plus
// the layer ledger and reports the per-layer metrics. Samples and
// Chrome traces go to --out. See bench/README.md for the workloads and
// the metric-to-layer map.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings; children inherit the parent's.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	expected string
	child    string // "" in the parent; probe|rep|traced|ledger in a child
}

const (
	// setupProbes is how many extra set-up-only children each untraced
	// run starts, so setup_s is a median of many samples even when only
	// one repetition fits the budget.
	setupProbes = 16
	// runDeadline bounds a whole invocation; children still running at
	// the deadline are stopped and the run fails.
	runDeadline = 170 * time.Second
	// goldenDir holds the artifact goldens checked at seeds 1 and 2,
	// relative to the repository root the benchmark runs from.
	goldenDir = "internal/experiments/testdata"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "leakybench: %v\n", err)
		return 2
	}
	if cfg.child != "" {
		if err := runChild(cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "leakybench child %s: %v\n", cfg.child, err)
			return 1
		}
		return 0
	}
	return runParent(cfg, stdout, stderr)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("leakybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	var scale string
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from (>= 1)")
	fs.IntVar(&c.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&scale, "scale", "full", "input scale: full, or smoke (toy inputs for the smoke test)")
	fs.StringVar(&c.out, "out", ".bench_build/out", "directory for samples, Chrome traces and daemon scratch state")
	fs.StringVar(&c.expected, "expected", "bench/testdata", "directory of expected_seed<N>.json output digests")
	fs.StringVar(&c.child, "child", "", "internal: run one repetition as a child (probe|rep|traced|ledger)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName(c.workload); !ok {
		return c, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seed == 0 {
		return c, errors.New("--seed must be >= 1")
	}
	if c.seconds < 1 {
		return c, errors.New("--seconds must be >= 1")
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	switch scale {
	case "full":
	case "smoke":
		c.smoke = true
	default:
		return c, fmt.Errorf("--scale must be full or smoke, got %q", scale)
	}
	switch c.child {
	case "", "probe", "rep", "traced", "ledger":
	default:
		return c, fmt.Errorf("unknown --child mode %q", c.child)
	}
	return c, nil
}

// childArgs are the flags a child repetition runs with.
func (c config) childArgs(mode string) []string {
	scale := "full"
	if c.smoke {
		scale = "smoke"
	}
	return []string{"--child", mode, "--workload", c.workload,
		"--seed", strconv.FormatUint(c.seed, 10), "--scale", scale, "--out", c.out}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(cfg config, stdout, stderr io.Writer) int {
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runDeadline))
	defer cancel()
	fail := func(err error) int {
		fmt.Fprintf(stderr, "leakybench: %s: %v\n", cfg.workload, err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return fail(err)
	}
	spawn := func(mode string) (repResult, error) { return spawnChild(ctx, exe, cfg.childArgs(mode), stderr) }

	var reps []repResult // untraced repetitions
	var setups []float64
	var attempted, failed int // operations outside reps
	values := map[string]float64{}
	var defs []metricDef
	var problems []string
	if cfg.trace {
		defs = perLayer()
		var results [3]repResult
		for i, mode := range []string{"rep", "traced", "ledger"} {
			if results[i], err = spawn(mode); err != nil {
				return fail(err)
			}
		}
		untraced, traced, ledger := results[0], results[1], results[2]
		reps = []repResult{untraced}
		attempted, failed = traced.Attempted, traced.Failed
		problems = append(problems, traced.Problems...)
		problems = append(problems, ledger.Problems...)
		problems = append(problems, compareDigests("traced repetition", traced.Digests, untraced.Digests)...)
		for _, d := range defs {
			u, uok := untraced.Layer[d.name]
			t, tok := traced.Layer[d.name]
			if d.unit == "count" && !racyCounts[d.name] && uok && tok && u != t {
				problems = append(problems, fmt.Sprintf("count %s differs between untraced (%v) and traced (%v) repetitions", d.name, u, t))
			}
		}
		for _, layer := range []map[string]float64{ledger.Layer, traced.Layer, untraced.Layer} {
			maps.Copy(values, layer)
		}
		values["obs.trace_overhead_frac"] = traced.WallS/untraced.WallS - 1
		values["wall_s"] = untraced.WallS
		values["cpu_s"] = untraced.CPUS
		values["peak_rss_mb"] = float64(untraced.RSSKB) / 1024
	} else {
		defs = endToEnd
		refChunkNS, err := withRef(ctx, stderr, func() error {
			for range setupProbes {
				r, err := spawn("probe")
				if err != nil {
					return err
				}
				setups = append(setups, r.SetupS)
			}
			// Start another repetition only while the median repetition
			// still fits the budget, so a run ends near --seconds.
			var repSeconds []float64
			for len(reps) == 0 || time.Since(start).Seconds()+median(repSeconds) <= float64(cfg.seconds) {
				t := time.Now()
				r, err := spawn("rep")
				if err != nil {
					return err
				}
				repSeconds = append(repSeconds, time.Since(t).Seconds())
				reps = append(reps, r)
				setups = append(setups, r.SetupS)
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
		hostSpeed := nominalRefNS / refChunkNS
		values["setup_s"] = median(setups) * hostSpeed
		values["norm_cpu_s"] = median(cpus(reps)) * hostSpeed
		// Unscaled, for the samples file only.
		values["cpu_s"] = median(cpus(reps))
		values["ref_chunk_ns"] = refChunkNS
	}

	sum := summary{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for i, r := range reps {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		problems = append(problems, r.Problems...)
		if i > 0 {
			problems = append(problems, compareDigests(fmt.Sprintf("repetition %d", i+1), r.Digests, reps[0].Digests)...)
		}
	}
	expected, err := loadExpected(cfg)
	if err != nil {
		problems = append(problems, err.Error())
	} else if expected != nil {
		problems = append(problems, compareDigests("expected digests", reps[0].Digests, expected)...)
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "leakybench: %s: check failed: %s\n", cfg.workload, p)
	}
	sum.Correct = len(problems) == 0

	for _, d := range defs {
		v := values[d.name]
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s %s %s %s\n", cfg.workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	if err := writeSamples(cfg, reps, setups, values); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// spawnChild runs one child repetition. The child prints "ready <s>",
// the CPU seconds of its set-up, once set-up is done, and its repResult
// as the last line before exiting.
func spawnChild(ctx context.Context, exe string, args []string, stderr io.Writer) (repResult, error) {
	var res repResult
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	// Should the parent die, the child (and through it any daemon) stops.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	r := bufio.NewReader(pipe)
	first, rerr := r.ReadString('\n')
	rest, _ := io.ReadAll(r)
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("child %v: %w", args[:2], err)
	}
	word, value, _ := strings.Cut(strings.TrimSpace(first), " ")
	setup, perr := strconv.ParseFloat(value, 64)
	if rerr != nil || word != "ready" || perr != nil || setup <= 0 {
		return res, fmt.Errorf("child %v: expected a ready line, got %q", args[:2], first)
	}
	if args[1] != "probe" {
		rest = bytes.TrimSpace(rest)
		if i := bytes.LastIndexByte(rest, '\n'); i >= 0 {
			rest = rest[i+1:]
		}
		if err := json.Unmarshal(rest, &res); err != nil {
			return res, fmt.Errorf("child %v: bad result line: %w", args[:2], err)
		}
	}
	res.SetupS = setup
	return res, nil
}

// compareDigests reports every output digest of got that differs from
// want, or that either side lacks.
func compareDigests(what string, got, want map[string]string) []string {
	var out []string
	for _, k := range slices.Sorted(maps.Keys(want)) {
		switch g, ok := got[k]; {
		case !ok:
			out = append(out, fmt.Sprintf("%s: output %s missing", what, k))
		case g != want[k]:
			out = append(out, fmt.Sprintf("%s: output %s has digest %.12s, want %.12s", what, k, g, want[k]))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: unexpected output %s", what, k))
		}
	}
	return out
}

// committedSeed reports whether the repository commits expected outputs
// for seed at full scale: the artifact goldens and the digests in
// bench/testdata. At these seeds a missing file fails the run rather than
// skipping its check.
func committedSeed(cfg config) bool {
	return !cfg.smoke && (cfg.seed == 1 || cfg.seed == 2)
}

// loadExpected returns the output digests for this workload and seed
// from <expected>/expected_seed<N>.json, or nil when the file is absent
// at a seed without committed digests.
func loadExpected(cfg config) (map[string]string, error) {
	path := filepath.Join(cfg.expected, fmt.Sprintf("expected_seed%d.json", cfg.seed))
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) && !committedSeed(cfg) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(blob, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want, ok := all[cfg.workload]
	if !ok && committedSeed(cfg) {
		return nil, fmt.Errorf("%s has no digests for %s", path, cfg.workload)
	}
	return want, nil
}

func cpus(reps []repResult) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.CPUS
	}
	return out
}

func walls(reps []repResult) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.WallS
	}
	return out
}

// writeSamples records the run's per-repetition samples, the count,
// median and quartiles of the set-up, CPU and wall samples, and the
// reported metrics, in <out>/<workload>.samples.json (.layers.json for a
// traced run).
func writeSamples(cfg config, reps []repResult, setups []float64, values map[string]float64) error {
	quart := func(xs []float64) map[string]float64 {
		return map[string]float64{"n": float64(len(xs)), "q1": quantile(xs, 0.25), "median": quantile(xs, 0.5), "q3": quantile(xs, 0.75)}
	}
	doc := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"smoke":       cfg.smoke,
		"repetitions": reps,
		"setup_s":     setups,
		"spread":      map[string]any{"setup_s": quart(setups), "cpu_s": quart(cpus(reps)), "wall_s": quart(walls(reps))},
		"metrics":     values,
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	suffix := "samples"
	if cfg.trace {
		suffix = "layers"
	}
	return os.WriteFile(filepath.Join(cfg.out, cfg.workload+"."+suffix+".json"), blob, 0o644)
}
