package leaky_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artifact at
// a reduced-but-representative scale and reports the headline metrics
// through b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction run. EXPERIMENTS.md records paper-vs-measured values.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	leaky "repro"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func opts() experiments.Opts { return experiments.Opts{Bits: 120, Seed: 1} }

func BenchmarkTableI_Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(leaky.Models()) != 4 {
			b.Fatal("catalog wrong")
		}
	}
}

func BenchmarkFigure2_PathHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, _, _ := experiments.Figure2(experiments.RunCtx{}, opts())
		b.ReportMetric(stats.Mean(data.DSB), "DSB-cycles")
		b.ReportMetric(stats.Mean(data.LSD), "LSD-cycles")
		b.ReportMetric(stats.Mean(data.MITE), "MITE-cycles")
	}
}

func BenchmarkFigure4_LCPIssue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, _ := experiments.Figure4(experiments.RunCtx{}, opts())
		b.ReportMetric(rows[0].IPC, "mixed-IPC")
		b.ReportMetric(rows[1].IPC, "ordered-IPC")
	}
}

func BenchmarkTableII_MTEvictionPatterns(b *testing.B) {
	o := opts()
	o.Bits = 60
	for i := 0; i < b.N; i++ {
		res, _, _ := experiments.TableII(experiments.RunCtx{}, o)
		var worst float64
		for _, r := range res {
			if r.ErrorRate > worst {
				worst = r.ErrorRate
			}
		}
		b.ReportMetric(worst*100, "worst-err-%")
	}
}

func BenchmarkTableIII_CovertMatrix(b *testing.B) {
	o := opts()
	o.Bits = 80
	for i := 0; i < b.N; i++ {
		res, _, _ := experiments.TableIII(experiments.RunCtx{}, o)
		var maxRate float64
		for _, r := range res {
			if r.RateKbps > maxRate {
				maxRate = r.RateKbps
			}
		}
		b.ReportMetric(maxRate, "best-Kbps")
	}
}

func BenchmarkTableIV_SlowSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, _ := experiments.TableIV(experiments.RunCtx{}, opts())
		b.ReportMetric(res[0].RateKbps, "G6226-Kbps")
		b.ReportMetric(res[1].RateKbps, "E2288G-Kbps")
	}
}

func BenchmarkTableV_PowerChannels(b *testing.B) {
	o := opts()
	o.Bits = 60 // 5 power bits after scaling
	for i := 0; i < b.N; i++ {
		res, _, _ := experiments.TableV(experiments.RunCtx{}, o)
		b.ReportMetric(res[0].RateKbps, "evict-Kbps")
		b.ReportMetric(res[1].RateKbps, "misalign-Kbps")
	}
}

func BenchmarkTableVI_SGX(b *testing.B) {
	o := opts()
	o.Bits = 48
	for i := 0; i < b.N; i++ {
		res, _, _ := experiments.TableVI(experiments.RunCtx{}, o)
		var maxRate float64
		for _, r := range res {
			if r.RateKbps > maxRate {
				maxRate = r.RateKbps
			}
		}
		b.ReportMetric(maxRate, "best-Kbps")
	}
}

func BenchmarkTableVII_SpectreMissRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, _ := experiments.TableVII(experiments.RunCtx{}, opts())
		for _, r := range res {
			if r.Channel == leaky.SpectreFrontend {
				b.ReportMetric(r.L1MissRate*100, "frontend-miss-%")
				b.ReportMetric(r.Accuracy*100, "frontend-acc-%")
			}
		}
	}
}

func BenchmarkFigure8_DSweep(b *testing.B) {
	o := opts()
	o.Bits = 40
	for i := 0; i < b.N; i++ {
		pts, _, _ := experiments.Figure8(experiments.RunCtx{}, o)
		b.ReportMetric(pts[0].RateKbps, "G6226-d1-Kbps")
		b.ReportMetric(pts[5].RateKbps, "G6226-d6-Kbps")
	}
}

func BenchmarkFigure9_PowerHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, _, _ := experiments.Figure9(experiments.RunCtx{}, opts())
		b.ReportMetric(stats.Mean(d.LSD), "LSD-W")
		b.ReportMetric(stats.Mean(d.DSB), "DSB-W")
		b.ReportMetric(stats.Mean(d.MITE), "MITE-W")
	}
}

func BenchmarkFigure10_Microcode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obs, _, _ := experiments.Figure10(experiments.RunCtx{}, opts())
		b.ReportMetric(obs[0].Ratio(), "patch1-ratio")
		b.ReportMetric(obs[1].Ratio(), "patch2-ratio")
	}
}

func BenchmarkFigure11_CNNTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces, _, _ := experiments.Figure11(experiments.RunCtx{}, opts())
		b.ReportMetric(float64(len(traces)), "victims")
	}
}

func BenchmarkFigure12_Distances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cnn, gb, _, _ := experiments.Figure12(experiments.RunCtx{}, opts())
		b.ReportMetric(cnn.Intra, "cnn-intra")
		b.ReportMetric(cnn.Inter, "cnn-inter")
		b.ReportMetric(gb.Inter, "geekbench-inter")
	}
}

// runnerBench measures the registry runner end-to-end on a cheap artifact
// subset; comparing the Serial and Parallel variants shows the worker
// pool's wall-clock win without changing any output byte.
func runnerBench(b *testing.B, workers int) {
	b.Helper()
	patterns := []string{"tableI", "figure2", "figure4", "tableIV", "figure10"}
	o := leaky.ExperimentOpts{Bits: 60, Seed: 1, Samples: 30}
	for i := 0; i < b.N; i++ {
		results, err := leaky.RunExperiments(patterns, o, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(patterns) {
			b.Fatalf("ran %d artifacts, want %d", len(results), len(patterns))
		}
	}
}

func BenchmarkRunner_FastSubsetSerial(b *testing.B)    { runnerBench(b, 1) }
func BenchmarkRunner_FastSubsetParallel4(b *testing.B) { runnerBench(b, 4) }

// serveBench measures the daemon's artifact endpoint end-to-end over
// HTTP. The first request simulates and fills the cache; every
// subsequent iteration is a cache hit, which is the hot path a deployed
// leakyfed serves under heavy traffic.
func BenchmarkServe_ArtifactCacheHit(b *testing.B) {
	srv := leaky.NewServer(leaky.ServeConfig{Opts: leaky.ExperimentOpts{Bits: 60, Seed: 1, Samples: 30}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/artifacts/tableIV"
	warm, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(srv.Metrics().CacheHits.Load()), "cache-hits")
	if srv.Metrics().CacheMisses.Load() != 1 {
		b.Fatalf("benchmark re-simulated: %d misses", srv.Metrics().CacheMisses.Load())
	}
}

// BenchmarkAblation_Defenses measures the stealthy eviction channel —
// whose bits differ only in which frontend path serves them — with and
// without the eqpaths defense, and that defense's throughput price.
func BenchmarkAblation_Defenses(b *testing.B) {
	eq, ok := defense.Lookup(defense.DefenseEqualizePaths)
	if !ok {
		b.Fatal("eqpaths is not registered")
	}
	residual := func(def string) float64 {
		cs := leaky.ChannelSpec{Model: "Xeon E-2288G", Stealthy: true, CalibBits: 30, Seed: 1, Defense: def}
		res, err := cs.Transmit(leaky.Alternating(60))
		if err != nil {
			b.Fatal(err)
		}
		return res.ErrorRate
	}
	for i := 0; i < b.N; i++ {
		baseErr := residual(defense.DefenseNone)
		defErr := residual(defense.DefenseEqualizePaths)
		cost := defense.PerformanceCost(leaky.Gold6226(), eq.Apply(leaky.Gold6226()), 1)
		b.ReportMetric(baseErr*100, "baseline-err-%")
		b.ReportMetric(defErr*100, "defended-err-%")
		b.ReportMetric(cost, "slowdown-x")
	}
}
