package sweep

import (
	"context"
	"testing"
)

// benchOptions is the reduced-but-full-coverage scale the sweep
// benchmarks run at: every one of the 176 enumerable specs transmits,
// with the calibration preamble and per-bit repetitions clamped the same
// way cmd/leakysweep's scale knobs do, so the benchmark exercises every
// channel family without the power sink's paper-default p=120000
// dominating the clock.
func benchOptions(workers int) Options {
	return Options{Bits: 16, CalibBits: 4, MaxP: 40, Seed: 1, Workers: workers}
}

// BenchmarkSweep_FullSpace is the headline hot-loop benchmark: the whole
// enumerable scenario space end to end, serially, through the default
// (calibration-memoizing) runner. Its ns/op and allocs/op are gated by
// cmd/benchdiff in CI.
func BenchmarkSweep_FullSpace(b *testing.B) {
	benchSweep(b, benchOptions(1), nil)
}

// BenchmarkSweep_FullSpaceUnmemoized pins the cost of the plain
// per-spec calibrate-then-transmit path, so the memoized runner's
// benefit stays visible in the trajectory.
func BenchmarkSweep_FullSpaceUnmemoized(b *testing.B) {
	benchSweep(b, benchOptions(1), Direct)
}

// BenchmarkSweep_FullSpaceParallel4 is the same space on four workers:
// the wall-clock configuration a sweep service actually runs.
func BenchmarkSweep_FullSpaceParallel4(b *testing.B) {
	benchSweep(b, benchOptions(4), nil)
}

// benchSweep runs the whole space b.N times through runner and reports
// the simulated cycles of one sweep, the sum of its rows' transmission
// cycles, as sim-cycles/op. A nil runner memoizes into a fresh memo
// each op, so that every op calibrates as a sweep in a new process does,
// whichever benchmarks ran before it.
func benchSweep(b *testing.B, o Options, runner RunFunc) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		run := runner
		if run == nil {
			run = NewMemo().RunFunc()
		}
		rep, err := Run(context.Background(), Filter{}, o, run, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != rep.Specs || rep.Specs == 0 {
			b.Fatalf("sweep incomplete: %d/%d", rep.Completed, rep.Specs)
		}
		cycles = 0
		for _, r := range rep.Rows {
			cycles += r.Result.Cycles
		}
	}
	b.ReportMetric(float64(cycles), "sim-cycles/op")
}
