// Command benchdiff compares two `go test -json -bench` result files
// and reports per-benchmark ns/op and allocs/op deltas, so CI can track
// the perf trajectory across runs. Time is warn-only by default — smoke
// benchmarks at -benchtime=1x are too noisy to gate on — and exits
// non-zero only when -fail-over (ns/op) or -fail-allocs-over (allocs/op,
// which is deterministic and therefore gateable at a tight threshold)
// is set and some regression exceeds it. Improvements are reported too:
// the table is sorted worst-regression-first, best-improvement-last, so
// both ends of the trajectory are visible at a glance.
//
// Simulated work is gated exactly, with no flag: a benchmark that
// reports sim-cycles/op in both files at the same iteration count must
// report the same value, or its row is marked WORK CHANGED and benchdiff
// exits 1. A speedup must do the same simulated work faster.
//
// A benchmark reported more than once in a file (go test -count N) is
// compared by its median ns/op and allocs/op, so one run on a busy host
// cannot trip the time gate alone. Its rows at one iteration count must
// report the same sim-cycles/op, which is deterministic, and allocs/op
// that agree up to the few allocations other goroutines make
// (allocSlack); where they do not, its row is marked ROWS DISAGREE and
// benchdiff exits 1.
//
// Usage:
//
//	benchdiff -old .github/bench/BENCH_baseline.json -new BENCH_ci.json
//	benchdiff -old old.json -new new.json -warn-over 50 -fail-over 300 -fail-allocs-over 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the go-test-json stream benchdiff reads.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// metrics is one benchmark's measurements. Allocs is -1 when the run
// lacked -benchmem, so "absent" never compares equal to "zero allocs".
// Iters is the iteration count it ran. Disagree, when set, says how the
// rows of a benchmark reported more than once differ in allocs/op or
// simulated work.
type metrics struct {
	Ns       float64
	Allocs   float64
	Work     work
	Iters    int64
	Disagree string
}

// work is the simulated cycles per op a benchmark reported and the
// iteration count it ran: a deterministic measure of the work it did.
// The zero value means it reported none.
type work struct {
	SimCycles float64
	Iters     int64
}

var (
	nsPerOp        = regexp.MustCompile(`(?:^|\s)([0-9]+)\s+([0-9.]+) ns/op`)
	allocsPerOp    = regexp.MustCompile(`(?:^|\s)([0-9]+) allocs/op`)
	simCyclesPerOp = regexp.MustCompile(`(?:^|\s)([0-9.]+) sim-cycles/op`)
)

// load extracts pkg.benchmark -> metrics from one result file. A
// benchmark reported more than once is summarized over its rows.
// test2json gives only a benchmark's first result line its Test field
// and emits the rows of later -count runs as package output, so a
// package output line that starts with the name of the benchmark the
// package ran last is that benchmark's row. test2json may also split
// one output line across several events, so each stream, a benchmark's
// or a package's own, is joined into lines before rows are matched.
func load(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type stream struct{ pkg, test string }
	rows := map[string][]metrics{}
	partial := map[stream]string{} // each stream's output after its last newline
	last := map[string]string{}    // the benchmark each package ran last
	add := func(s stream, line string) {
		if s.test == "" {
			if s.test = last[s.pkg]; !rowOf(line, s.test) {
				return
			}
		}
		if cur, ok := parseRow(line); ok {
			name := s.pkg + "." + s.test
			rows[name] = append(rows[name], cur)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise (build output, teed text)
		}
		if strings.HasPrefix(ev.Test, "Benchmark") {
			last[ev.Package] = ev.Test
		}
		if ev.Action != "output" {
			continue
		}
		s := stream{ev.Package, ev.Test}
		lines := strings.Split(partial[s]+ev.Output, "\n")
		for _, line := range lines[:len(lines)-1] {
			add(s, line)
		}
		partial[s] = lines[len(lines)-1]
	}
	for s, line := range partial {
		add(s, line)
	}
	out := make(map[string]metrics, len(rows))
	for name, rs := range rows {
		out[name] = summarize(rs)
	}
	return out, sc.Err()
}

// rowOf reports whether line starts with benchmark name's result row
// label: the name, optionally followed by -GOMAXPROCS.
func rowOf(line, name string) bool {
	label, _, _ := strings.Cut(strings.TrimLeft(line, " \t"), "\t")
	label = strings.TrimSpace(label)
	if name == "" || !strings.HasPrefix(label, name) {
		return false
	}
	procs, ok := strings.CutPrefix(label[len(name):], "-")
	return label == name || ok && procs != "" && strings.Trim(procs, "0123456789") == ""
}

// parseRow reads one benchmark result line, reporting false for any
// other line.
func parseRow(line string) (metrics, bool) {
	m := nsPerOp.FindStringSubmatch(line)
	if m == nil {
		return metrics{}, false
	}
	ns, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		return metrics{}, false
	}
	iters, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return metrics{}, false
	}
	cur := metrics{Ns: ns, Allocs: -1, Iters: iters}
	if am := allocsPerOp.FindStringSubmatch(line); am != nil {
		if av, err := strconv.ParseFloat(am[1], 64); err == nil {
			cur.Allocs = av
		}
	}
	if wm := simCyclesPerOp.FindStringSubmatch(line); wm != nil {
		if cycles, err := strconv.ParseFloat(wm[1], 64); err == nil && iters > 0 {
			cur.Work = work{SimCycles: cycles, Iters: iters}
		}
	}
	return cur, true
}

// allocSlack is how many allocations rows of one benchmark may differ
// by and still agree: 64, or 2% of the larger count. Allocations that
// other goroutines make during a one-iteration run are counted too (a
// per-P sync.Pool miss in fmt or net/http, a background allocation of
// the runtime), and do not repeat: in three -count 3 passes of the whole
// suite on a 2-CPU host, rows spread by up to 30 allocations of about
// 200 (the HTTP cache hit) and by 43 of about 6,300 (the serial
// runner). A benchmark whose state carries over from one op to the next
// (a warm cache) differs by far more.
func allocSlack(allocs float64) float64 { return max(64, allocs/50) }

// summarize folds a benchmark's rows into one: the median ns/op (the
// mean of the middle two of an even count), and the median allocs/op and
// the first row's simulated work of the rows at the first row's
// iteration count, which must repeat that work exactly and agree on
// allocs/op within allocSlack. Disagree says how they do not.
func summarize(rs []metrics) metrics {
	var ns, allocs []float64
	m := rs[0]
	for i, r := range rs {
		ns = append(ns, r.Ns)
		if r.Iters != m.Iters {
			continue
		}
		allocs = append(allocs, r.Allocs)
		if r.Work != m.Work && m.Disagree == "" {
			m.Disagree = fmt.Sprintf("%.0f vs %.0f sim-cycles/op in rows 1 and %d", m.Work.SimCycles, r.Work.SimCycles, i+1)
		}
	}
	m.Ns, m.Allocs = median(ns), median(allocs)
	if lo, hi := slices.Min(allocs), slices.Max(allocs); hi-lo > allocSlack(hi) && m.Disagree == "" {
		m.Disagree = fmt.Sprintf("%s to %s allocs/op", fmtAllocs(lo), fmtAllocs(hi))
	}
	return m
}

// median returns the middle value of xs, or the mean of the middle two
// of an even count; it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// pctDelta is the percentage change from old to new; 0 when old is not
// positive (nothing meaningful to normalize by).
func pctDelta(oldV, newV float64) float64 {
	if oldV <= 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// workChanged reports whether a benchmark did different simulated work
// in the two runs: both report sim-cycles/op at the same iteration
// count, and the values differ. Simulated cycles do not depend on the
// host, so any difference means the code under the benchmark changed
// what it simulates.
func workChanged(o, n work) bool {
	return o.Iters > 0 && o.Iters == n.Iters && o.SimCycles != n.SimCycles
}

// row is one comparable benchmark, carrying both metric deltas.
type row struct {
	name             string
	oldNs, newNs     float64
	nsDelta          float64
	oldAllocs        float64 // -1 when the baseline lacked -benchmem
	newAllocs        float64
	allocDelta       float64
	allocsComparable bool
	oldWork, newWork work
	disagree         string // how a file's rows of the benchmark disagree
}

// disagreement names the result sets whose rows of one benchmark
// disagree, and how.
func disagreement(o, n metrics) string {
	var ds []string
	if o.Disagree != "" {
		ds = append(ds, "old: "+o.Disagree)
	}
	if n.Disagree != "" {
		ds = append(ds, "new: "+n.Disagree)
	}
	return strings.Join(ds, "; ")
}

func fmtAllocs(v float64) string {
	if v < 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

func main() {
	var (
		oldPath        = flag.String("old", "", "baseline go-test-json bench results")
		newPath        = flag.String("new", "", "current go-test-json bench results")
		warnOver       = flag.Float64("warn-over", 50, "flag benchmarks whose ns/op moved more than this percentage")
		failOver       = flag.Float64("fail-over", 0, "exit 1 when a ns/op regression exceeds this percentage (0 = never fail)")
		failAllocsOver = flag.Float64("fail-allocs-over", 0, "exit 1 when an allocs/op regression exceeds this percentage (0 = never fail)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	oldRes, err := load(*oldPath)
	if err != nil {
		// A missing baseline is the bootstrap state, not an error: report
		// and succeed so the job that archives the new results still runs.
		fmt.Printf("benchdiff: no usable baseline (%v); nothing to compare\n", err)
		return
	}
	newRes, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading new results: %v\n", err)
		os.Exit(2)
	}

	if compare(os.Stdout, oldRes, newRes, *warnOver, *failOver, *failAllocsOver) {
		os.Exit(1)
	}
}

// compare prints the table of benchmarks in both result sets, and those
// in only one, to w. It reports whether a gate failed: a time regression
// of failOver percent or more, an allocation regression of
// failAllocsOver percent or more (either when positive), a change in
// simulated work, or rows of one benchmark that disagree.
func compare(w io.Writer, oldRes, newRes map[string]metrics, warnOver, failOver, failAllocsOver float64) bool {
	var rows []row
	var added []string
	for name, nv := range newRes {
		ov, ok := oldRes[name]
		if !ok {
			added = append(added, name)
			continue
		}
		r := row{
			name: name, oldNs: ov.Ns, newNs: nv.Ns,
			nsDelta:   pctDelta(ov.Ns, nv.Ns),
			oldAllocs: ov.Allocs, newAllocs: nv.Allocs,
		}
		if ov.Allocs >= 0 && nv.Allocs >= 0 {
			r.allocsComparable = true
			r.allocDelta = pctDelta(ov.Allocs, nv.Allocs)
		}
		r.oldWork, r.newWork = ov.Work, nv.Work
		r.disagree = disagreement(ov, nv)
		rows = append(rows, r)
	}
	// Worst time regression first, best improvement last; ties (and the
	// all-zero case) fall back to name so the table stays deterministic.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].nsDelta != rows[j].nsDelta {
			return rows[i].nsDelta > rows[j].nsDelta
		}
		return rows[i].name < rows[j].name
	})
	sort.Strings(added)

	fmt.Fprintf(w, "%-64s %14s %14s %9s %12s %12s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "ns Δ", "old allocs", "new allocs", "allocs Δ")
	regressed, improved := 0, 0
	failed := false
	for _, r := range rows {
		mark := ""
		switch {
		case failOver > 0 && r.nsDelta >= failOver:
			mark = "  <-- TIME REGRESSION"
			failed = true
			regressed++
		case r.nsDelta >= warnOver:
			mark = "  <-- regressed"
			regressed++
		case -r.nsDelta >= warnOver:
			mark = "  <-- improved"
			improved++
		}
		if r.allocsComparable && failAllocsOver > 0 && r.allocDelta >= failAllocsOver {
			mark += "  <-- ALLOC REGRESSION"
			failed = true
		}
		if workChanged(r.oldWork, r.newWork) {
			mark += fmt.Sprintf("  <-- WORK CHANGED (%.0f -> %.0f sim-cycles/op)", r.oldWork.SimCycles, r.newWork.SimCycles)
			failed = true
		}
		if r.disagree != "" {
			mark += "  <-- ROWS DISAGREE (" + r.disagree + ")"
			failed = true
		}
		fmt.Fprintf(w, "%-64s %14.0f %14.0f %+8.1f%% %12s %12s %+8.1f%%%s\n",
			r.name, r.oldNs, r.newNs, r.nsDelta,
			fmtAllocs(r.oldAllocs), fmtAllocs(r.newAllocs), r.allocDelta, mark)
	}
	for _, name := range added {
		nv := newRes[name]
		mark := ""
		if d := disagreement(metrics{}, nv); d != "" {
			mark = "  <-- ROWS DISAGREE (" + d + ")"
			failed = true
		}
		fmt.Fprintf(w, "%-64s %14s %14.0f %9s %12s %12s %9s%s\n",
			name, "-", nv.Ns, "new", "-", fmtAllocs(nv.Allocs), "", mark)
	}
	removed := 0
	for name, ov := range oldRes {
		if _, ok := newRes[name]; !ok {
			fmt.Fprintf(w, "%-64s %14.0f %14s %9s %12s %12s %9s\n",
				name, ov.Ns, "-", "gone", fmtAllocs(ov.Allocs), "-", "")
			removed++
		}
	}
	best := 0.0
	for _, r := range rows {
		best = math.Min(best, r.nsDelta)
	}
	fmt.Fprintf(w, "\n%d benchmarks compared: %d regressed beyond %.0f%%, %d improved beyond %.0f%% (best %+.1f%%), %d new, %d removed\n",
		len(rows), regressed, warnOver, improved, warnOver, best, len(added), removed)
	return failed
}
