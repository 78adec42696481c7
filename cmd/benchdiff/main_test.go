package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadExtractsMetrics(t *testing.T) {
	blob := `{"Action":"output","Package":"repro","Test":"BenchmarkA","Output":"BenchmarkA \t 1\t 67997 ns/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkB","Output":"       1\t  49887180 ns/op\t       153.1 DSB-cycles\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkB","Output":"no metric here\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkC","Output":"BenchmarkC-8 \t 100\t 2150 ns/op\t 512 B/op\t 4 allocs/op\n"}
{"Action":"run","Package":"repro","Test":"BenchmarkD"}
not json at all
{"Action":"output","Package":"repro","Output":"PASS\n"}
`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metrics{
		"repro.BenchmarkA": {Ns: 67997, Allocs: -1, Iters: 1},
		"repro.BenchmarkB": {Ns: 49887180, Allocs: -1, Iters: 1},
		"repro.BenchmarkC": {Ns: 2150, Allocs: 4, Iters: 100},
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %+v, want %+v", k, got[k], v)
		}
	}
}

func TestPctDelta(t *testing.T) {
	if d := pctDelta(100, 150); d != 50 {
		t.Errorf("pctDelta(100,150) = %v, want 50", d)
	}
	if d := pctDelta(200, 100); d != -50 {
		t.Errorf("pctDelta(200,100) = %v, want -50", d)
	}
	if d := pctDelta(0, 100); d != 0 {
		t.Errorf("pctDelta(0,100) = %v, want 0 (no baseline to normalize by)", d)
	}
}

func TestLoadOfCommittedBaseline(t *testing.T) {
	res, err := load("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("committed baseline holds no benchmarks; the CI compare step would be vacuous")
	}
	withAllocs := 0
	for _, m := range res {
		if m.Allocs >= 0 {
			withAllocs++
		}
	}
	if withAllocs == 0 {
		t.Fatal("committed baseline has no allocs/op values; the CI alloc gate would be vacuous")
	}
}

func TestLoadExtractsWork(t *testing.T) {
	blob := `{"Action":"output","Package":"repro/internal/cpu","Test":"BenchmarkCoreRunTimed","Output":"BenchmarkCoreRunTimed-2        \t       1\t     59650 ns/op\t      4467 sim-cycles/op\t    1336 B/op\t      11 allocs/op\n"}
{"Action":"output","Package":"repro/internal/cpu","Test":"BenchmarkSplit","Output":"     250\t   4718 ns/op\t     30000 sim-cycles/op\t 101.5 retired-uops/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkNoWork","Output":"BenchmarkNoWork-8 \t 100\t 2150 ns/op\t 512 B/op\t 4 allocs/op\n"}
`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]work{
		"repro/internal/cpu.BenchmarkCoreRunTimed": {SimCycles: 4467, Iters: 1},
		"repro/internal/cpu.BenchmarkSplit":        {SimCycles: 30000, Iters: 250},
		"repro.BenchmarkNoWork":                    {},
	}
	for k, v := range want {
		if got[k].Work != v {
			t.Errorf("%s work = %+v, want %+v", k, got[k].Work, v)
		}
	}
}

// TestWorkGate pins when a change in simulated work fails the
// comparison: only when both runs report sim-cycles/op at the same
// iteration count.
func TestWorkGate(t *testing.T) {
	at := func(cycles float64, iters int64) metrics {
		return metrics{Ns: 1000, Allocs: 10, Work: work{SimCycles: cycles, Iters: iters}}
	}
	none := metrics{Ns: 1000, Allocs: 10}
	cases := []struct {
		name     string
		old, new metrics
		fail     bool
	}{
		{"equal values pass", at(4467, 1), at(4467, 1), false},
		{"different values fail", at(4467, 1), at(4468, 1), true},
		{"different iteration counts are not compared", at(4467, 1), at(4468, 1000), false},
		{"missing in the new run is not compared", at(4467, 1), none, false},
		{"missing in the old run is not compared", none, at(4467, 1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			failed := compare(&out, map[string]metrics{"p.B": tc.old}, map[string]metrics{"p.B": tc.new}, 50, 300, 25)
			if failed != tc.fail || strings.Contains(out.String(), "WORK CHANGED") != tc.fail {
				t.Fatalf("failed = %v, want %v; output:\n%s", failed, tc.fail, out.String())
			}
		})
	}
}

// TestCommittedBaselineWork pins the simulated work the CI gate holds
// every later run to.
func TestCommittedBaselineWork(t *testing.T) {
	res, err := load("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"repro/internal/attack.BenchmarkSendBit_NonMTEviction":    4467,
		"repro/internal/attack.BenchmarkSendBit_NonMTStealthy":    6664,
		"repro/internal/attack.BenchmarkSendBit_NonMTMisalign":    4396,
		"repro/internal/attack.BenchmarkSendBit_MTEviction":       23220,
		"repro/internal/attack.BenchmarkSendBit_SlowSwitch":       4787,
		"repro/internal/attack.BenchmarkSendBit_Power":            2666,
		"repro/internal/cpu.BenchmarkCoreRunTimed":                4467,
		"repro/internal/cpu.BenchmarkCoreRunCyclesIdle":           4045,
		"repro/internal/cpu.BenchmarkCoreRunCyclesMT":             30000,
		"repro/internal/contract.BenchmarkExecutorObserve":        2710,
		"repro/internal/sweep.BenchmarkSweep_FullSpace":           159689382,
		"repro/internal/sweep.BenchmarkSweep_FullSpaceUnmemoized": 159689382,
		"repro/internal/sweep.BenchmarkSweep_FullSpaceParallel4":  159689382,
		"repro/internal/power.BenchmarkMeterReplay":               2097152,
		"repro/internal/power.BenchmarkMeterAddCycles":            100000,
	}
	for name, cycles := range want {
		if w := res[name].Work; w.SimCycles != cycles || w.Iters < 1 {
			t.Errorf("%s work = %+v, want %.0f sim-cycles/op", name, w, cycles)
		}
	}
}

// writeResults writes go-test-json output lines for benchmark p.B, one
// per row, and returns the file's path.
func writeResults(t *testing.T, rows ...string) string {
	t.Helper()
	var b []byte
	for _, r := range rows {
		line, err := json.Marshal(event{Action: "output", Package: "p", Test: "B", Output: "B-2 \t " + r + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRepeatedRowsCompareByMedian pins how a benchmark run with -count
// N compares: by its median ns/op, so one outlier row moves nothing,
// against a baseline of one row or of several.
func TestRepeatedRowsCompareByMedian(t *testing.T) {
	three := writeResults(t,
		"1\t 1100 ns/op\t 5000 sim-cycles/op\t 64 B/op\t 4 allocs/op",
		"1\t 1000 ns/op\t 5000 sim-cycles/op\t 64 B/op\t 4 allocs/op",
		"1\t 9000000 ns/op\t 5000 sim-cycles/op\t 64 B/op\t 4 allocs/op", // a busy host
	)
	single := writeResults(t, "1\t 1050 ns/op\t 5000 sim-cycles/op\t 64 B/op\t 4 allocs/op")
	even := writeResults(t, "1\t 1000 ns/op\t 4 allocs/op", "1\t 1200 ns/op\t 4 allocs/op")
	load := func(path string) map[string]metrics {
		res, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := load(three)["p.B"]; got.Ns != 1100 || got.Allocs != 4 || got.Work.SimCycles != 5000 || got.Disagree != "" {
		t.Fatalf("three rows summarize to %+v, want the median 1100 ns/op", got)
	}
	if got := load(even)["p.B"].Ns; got != 1100 {
		t.Fatalf("two rows summarize to %v ns/op, want their mean 1100", got)
	}
	for _, tc := range []struct{ name, old, new string }{
		{"single-row baseline", single, three},
		{"repeated baseline", three, single},
		{"both repeated", three, three},
	} {
		var out strings.Builder
		if compare(&out, load(tc.old), load(tc.new), 50, 300, 25) {
			t.Fatalf("%s: the comparison failed:\n%s", tc.name, out.String())
		}
		if !strings.Contains(out.String(), "1 benchmarks compared") {
			t.Fatalf("%s: the benchmark was not compared:\n%s", tc.name, out.String())
		}
	}
}

// TestDisagreeingRowsFail pins that rows of one benchmark at one
// iteration count must repeat their sim-cycles/op, and their allocs/op
// up to allocSlack, in either file, or the comparison fails and says so.
func TestDisagreeingRowsFail(t *testing.T) {
	base := writeResults(t, "1\t 1000 ns/op\t 5000 sim-cycles/op\t 4 allocs/op")
	for _, tc := range []struct {
		name string
		rows []string
		fail bool
	}{
		{"allocs", []string{"1\t 1000 ns/op\t 5000 sim-cycles/op\t 4 allocs/op", "1\t 1000 ns/op\t 5000 sim-cycles/op\t 80 allocs/op"}, true},
		{"allocs within the slack", []string{"1\t 1000 ns/op\t 5000 sim-cycles/op\t 4 allocs/op", "1\t 1000 ns/op\t 5000 sim-cycles/op\t 5 allocs/op"}, false},
		{"work", []string{"1\t 1000 ns/op\t 5000 sim-cycles/op\t 4 allocs/op", "1\t 1000 ns/op\t 5001 sim-cycles/op\t 4 allocs/op"}, true},
		{"other iteration counts", []string{"1\t 1000 ns/op\t 5000 sim-cycles/op\t 4 allocs/op", "50\t 900 ns/op\t 4900 sim-cycles/op\t 3 allocs/op"}, false},
	} {
		rows := writeResults(t, tc.rows...)
		for _, files := range [][2]string{{base, rows}, {rows, base}} {
			oldRes, err := load(files[0])
			if err != nil {
				t.Fatal(err)
			}
			newRes, err := load(files[1])
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			failed := compare(&out, oldRes, newRes, 50, 300, 25)
			if failed != tc.fail || strings.Contains(out.String(), "ROWS DISAGREE") != tc.fail {
				t.Fatalf("%s: failed = %v, want %v; output:\n%s", tc.name, failed, tc.fail, out.String())
			}
		}
	}
}

// TestRowsSplitAcrossEventsAreJoined: test2json may split one benchmark
// row across output events. Inside a -count 3 stream the split rows are
// joined and summarized with the whole one, none dropped: the median
// comes from all three rows and allocs/op from each. Rows that really
// disagree still fail.
func TestRowsSplitAcrossEventsAreJoined(t *testing.T) {
	stream := func(lastAllocs string) string {
		var b []byte
		for _, out := range []string{
			"=== RUN   BenchmarkTableI_Models\n",
			"BenchmarkTableI_Models\n",
			"BenchmarkTableI_Models-2 \t",
			"       1\t     41000 ns/op\t    2048 B/op\t       1 allocs/op\n",
			"BenchmarkTableI_Models-2 \t",
			"       1\t     390", // split inside ns/op
			"00 ns/op\t    2048 B/op\t       1 allocs/op\n",
			"BenchmarkTableI_Models-2 \t",
			"       1\t     40000 ns/op\t    2048 B/op\t  ", // split before allocs/op
			"     " + lastAllocs + " allocs/op\n",
			"PASS\n",
		} {
			line, err := json.Marshal(event{Action: "output", Package: "repro", Test: "BenchmarkTableI_Models", Output: out})
			if err != nil {
				t.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := writeResults(t, "1\t 40000 ns/op\t 1 allocs/op")
	for _, tc := range []struct {
		allocs string
		fail   bool
	}{{"1", false}, {"7", false}, {"80", true}} {
		res, err := load(stream(tc.allocs))
		if err != nil {
			t.Fatal(err)
		}
		got := res["repro.BenchmarkTableI_Models"]
		if got.Ns != 40000 || got.Allocs != 1 || got.Iters != 1 || (got.Disagree != "") != tc.fail {
			t.Fatalf("last row at %s allocs/op summarizes to %+v, want the median 40000 ns/op of three rows at 1 allocs/op, disagreeing: %v",
				tc.allocs, got, tc.fail)
		}
		oldRes, err := load(base)
		if err != nil {
			t.Fatal(err)
		}
		newRes := map[string]metrics{"p.B": got}
		var out strings.Builder
		failed := compare(&out, oldRes, newRes, 50, 300, 25)
		if failed != tc.fail || strings.Contains(out.String(), "ROWS DISAGREE") != tc.fail || strings.Contains(out.String(), "ALLOC REGRESSION") {
			t.Fatalf("last row at %s allocs/op: failed = %v, want %v; output:\n%s", tc.allocs, failed, tc.fail, out.String())
		}
	}
}

// TestLaterCountRowsArePackageOutput reads three -count rows in the
// shape Go 1.24's test2json writes them: only the first result line
// carries the benchmark's Test field, the second and third are package
// output, and a package line may be split across events. All three
// rows belong to the benchmark that ran last in the package, none to a
// benchmark of another package or to the next one, so the median and
// the row check see every row.
func TestLaterCountRowsArePackageOutput(t *testing.T) {
	stream := func(third string) string {
		var b []byte
		for _, ev := range []event{
			{Action: "run", Package: "repro/internal/cpu", Test: "BenchmarkCoreStep"},
			{Action: "output", Package: "repro/internal/cpu", Test: "BenchmarkCoreStep", Output: "=== RUN   BenchmarkCoreStep\n"},
			{Action: "output", Package: "repro/internal/cpu", Test: "BenchmarkCoreStep", Output: "BenchmarkCoreStep\n"},
			{Action: "output", Package: "repro/internal/cpu", Test: "BenchmarkCoreStep", Output: "BenchmarkCoreStep-2            \t       1\t      4573 ns/op\t     100 sim-cycles/op\t       0 B/op\t       0 allocs/op\n"},
			{Action: "output", Package: "repro/internal/cpu", Output: "BenchmarkCoreStep-2            \t       1\t      2100 ns/op\t     100 sim-cycles/op\t  "},
			{Action: "output", Package: "repro/internal/cpu", Output: "     0 B/op\t       0 allocs/op\n"},
			{Action: "output", Package: "repro/internal/other", Output: "BenchmarkCoreStep-2            \t       1\t         1 ns/op\t     100 sim-cycles/op\t       0 B/op\t       0 allocs/op\n"},
			{Action: "output", Package: "repro/internal/cpu", Output: "BenchmarkCoreStep-2            \t       1\t      " + third + "\n"},
			{Action: "run", Package: "repro/internal/cpu", Test: "BenchmarkCoreStepper"},
			{Action: "output", Package: "repro/internal/cpu", Output: "BenchmarkCoreStep-2            \t       1\t         1 ns/op\t     100 sim-cycles/op\t       0 B/op\t       0 allocs/op\n"},
			{Action: "output", Package: "repro/internal/cpu", Output: "PASS\n"},
			{Action: "output", Package: "repro/internal/cpu", Output: "ok  \trepro/internal/cpu\t0.009s\n"},
		} {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		third    string
		disagree bool
	}{
		{"2028 ns/op\t     100 sim-cycles/op\t       0 B/op\t       0 allocs/op", false},
		{"2028 ns/op\t     100 sim-cycles/op\t      64 B/op\t       1 allocs/op", false},
		{"2028 ns/op\t     100 sim-cycles/op\t    4096 B/op\t     100 allocs/op", true},
		{"2028 ns/op\t     101 sim-cycles/op\t       0 B/op\t       0 allocs/op", true},
	} {
		res, err := load(stream(tc.third))
		if err != nil {
			t.Fatal(err)
		}
		got := res["repro/internal/cpu.BenchmarkCoreStep"]
		if len(res) != 1 || got.Ns != 2100 || got.Allocs != 0 || (got.Disagree != "") != tc.disagree {
			t.Fatalf("third row %q: loaded %+v, want one benchmark at the median 2100 ns/op of its three rows, disagreeing: %v",
				tc.third, res, tc.disagree)
		}
	}
}
