package fingerprint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/stats"
	"repro/internal/victim"
)

func cfg() Config {
	c := DefaultConfig(cpu.Gold6226())
	c.Samples = 60 // trimmed for test runtime
	if testing.Short() {
		c.Samples = 30 // reduced-scale variant for the fast tier-1 loop
	}
	return c
}

func TestBaselineIPC(t *testing.T) {
	ipc := BaselineIPC(cfg())
	if ipc < 3.0 || ipc > 4.0 {
		t.Errorf("solo attacker IPC = %.2f, want ~3.5-4 (paper: 3.58)", ipc)
	}
}

func TestVictimHalvesIPC(t *testing.T) {
	c := cfg()
	base := BaselineIPC(c)
	tr := Trace(c, victim.CNNs()[0])
	mean := stats.Mean(tr)
	if mean > base*0.75 {
		t.Errorf("co-running victim should cut attacker IPC substantially: solo %.2f, shared %.2f", base, mean)
	}
	if mean < base*0.3 {
		t.Errorf("shared IPC %.2f implausibly low vs solo %.2f", mean, base)
	}
}

func TestTraceFluctuatesWithPhases(t *testing.T) {
	tr := Trace(cfg(), victim.CNNs()[0]) // AlexNet alternates heavy/light
	if sd := stats.StdDev(tr); sd < 0.03 {
		t.Errorf("trace stddev %.4f too flat; phases should modulate IPC", sd)
	}
}

func TestTraceLength(t *testing.T) {
	c := cfg()
	c.Samples = 25
	if got := len(Trace(c, victim.Geekbench()[0])); got != 25 {
		t.Errorf("trace length %d, want 25", got)
	}
}

func TestIntraBelowInter(t *testing.T) {
	d := Study(cfg(), victim.CNNs())
	t.Logf("CNNs: intra=%.3f inter=%.3f", d.Intra, d.Inter)
	if d.Intra >= d.Inter {
		t.Errorf("intra-distance %.3f must be below inter-distance %.3f", d.Intra, d.Inter)
	}
	if d.Inter/d.Intra < 1.5 {
		t.Errorf("inter/intra ratio %.2f too small to classify", d.Inter/d.Intra)
	}
}

func TestGeekbenchMoreSeparable(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := cfg()
	cnn := Study(c, victim.CNNs())
	gb := Study(c, victim.Geekbench()[:6])
	t.Logf("CNN inter=%.3f, Geekbench inter=%.3f", cnn.Inter, gb.Inter)
	if gb.Inter <= cnn.Inter {
		t.Errorf("Geekbench suite (inter %.2f) should separate more than CNNs (%.2f), as in the paper", gb.Inter, cnn.Inter)
	}
}

func TestClassify(t *testing.T) {
	c := cfg()
	suite := victim.CNNs()
	refs := make([][]float64, len(suite))
	for i := range suite {
		cc := c
		cc.Seed = 77 + uint64(i)
		refs[i] = Trace(cc, suite[i])
	}
	correct := 0
	for i := range suite {
		cc := c
		cc.Seed = 1234 + uint64(i)
		obs := Trace(cc, suite[i])
		if Classify(obs, refs) == i {
			correct++
		}
	}
	if correct < 3 {
		t.Errorf("classified %d/4 CNNs correctly, want >= 3", correct)
	}
}

// TestStudyMatchesIndependentTraces pins that simulating the shared
// start of a workload's two runs once changes no result: at the scale of
// the Figure 12 goldens, StudyCtx's Intra, Inter and every matrix entry
// equal, bit for bit, those built from two independent TraceCtx runs
// per workload with the same per-run seeds. Seed 2 shares the fewest
// samples of seeds 1-50. The study's trace spans must show that both
// paths ran: samples simulated once, and runs that parted before the
// last sample.
func TestStudyMatchesIndependentTraces(t *testing.T) {
	seeds := []uint64{2, 1, 5}
	suites := [][]victim.Workload{victim.CNNs(), victim.Geekbench()}
	if testing.Short() {
		// The four CNNs at seed 2 run both paths in under a third of
		// the time, which matters under -race.
		seeds, suites = seeds[:1], suites[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(cpu.Gold6226())
			cfg.Samples, cfg.Seed = 25, seed
			tr := obs.NewTrace("", "study")
			rc := runctx.New(tr.Context(context.Background()), nil)
			for _, suite := range suites {
				got, err := StudyCtx(rc, cfg, suite)
				if err != nil {
					t.Fatal(err)
				}
				names := make([]string, len(suite))
				run1 := make([][]float64, len(suite))
				run2 := make([][]float64, len(suite))
				for i, w := range suite {
					names[i] = w.Name
					c1, c2 := cfg, cfg
					c1.Seed = cfg.Seed*1000 + uint64(i)
					c2.Seed = cfg.Seed*1000 + uint64(i) + 500
					run1[i] = Trace(c1, w)
					run2[i] = Trace(c2, w)
				}
				want := distances(names, run1, run2)
				if math.Float64bits(got.Intra) != math.Float64bits(want.Intra) ||
					math.Float64bits(got.Inter) != math.Float64bits(want.Inter) {
					t.Errorf("%s: study intra/inter %v/%v, independent traces %v/%v",
						names[0], got.Intra, got.Inter, want.Intra, want.Inter)
				}
				for i := range want.Matrix.D {
					for j, v := range want.Matrix.D[i] {
						if g := got.Matrix.D[i][j]; math.Float64bits(g) != math.Float64bits(v) {
							t.Errorf("matrix[%s][%s] = %v, independent traces %v", names[i], names[j], g, v)
						}
					}
				}
			}
			var shared, parted int
			for _, sd := range tr.Spans() {
				if sd.Name != "fingerprint.trace" {
					continue
				}
				n, err := strconv.Atoi(sd.Attrs["shared"])
				if err != nil {
					t.Fatalf("trace span of %s: shared = %q", sd.Attrs["workload"], sd.Attrs["shared"])
				}
				t.Logf("%-12s shared %2d of %d samples", sd.Attrs["workload"], n, cfg.Samples)
				if n > 0 {
					shared++
				}
				if n < cfg.Samples {
					parted++
				}
			}
			if shared == 0 || parted == 0 {
				t.Errorf("%d workloads shared samples and %d parted before the last sample; want both paths run", shared, parted)
			}
		})
	}
}

// TestStudyCancelsPromptly cancels a study from its progress sink, once
// at a sample both runs of the first workload share and once at
// samples each run simulates on its own after the fork. Each time
// StudyCtx must return the context's error and zero Distances within
// one more sample.
func TestStudyCancelsPromptly(t *testing.T) {
	c := cfg()
	suite := victim.CNNs()
	// A seed whose first workload shares two samples or more and parts
	// two samples or more before the end.
	fork := 0
	for seed := uint64(1); ; seed++ {
		if seed > 100 {
			t.Fatal("no seed in 1-100 parts the first workload's runs mid-trace")
		}
		c1, c2 := c, c
		c1.Seed, c2.Seed = seed*1000, seed*1000+500
		if fork = parted(newSchedule(c1, &suite[0]), newSchedule(c2, &suite[0])); fork >= 2 && fork <= c.Samples-2 {
			c.Seed = seed
			break
		}
	}
	// Progress events of the first workload: the shared samples, then
	// run 1's rest, then run 2's.
	for _, tc := range []struct {
		name     string
		event    int // the event to cancel at
		wantDone int // that event's sample
	}{
		{"shared", fork / 2, fork / 2},
		{"run1_after_fork", fork + 1, fork + 1},
		{"run2_after_fork", c.Samples + 1, fork + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			events, after := 0, 0
			sink := func(ev runctx.Event) {
				switch {
				case events == tc.event:
					if ev.Done != tc.wantDone {
						t.Errorf("event %d is sample %d, want %d", events, ev.Done, tc.wantDone)
					}
					cancel()
				case events > tc.event:
					after++
				}
				events++
			}
			d, err := StudyCtx(runctx.New(ctx, sink), c, suite)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !reflect.DeepEqual(d, Distances{}) {
				t.Errorf("cancelled study returned %+v, want zero Distances", d)
			}
			if after > 1 {
				t.Errorf("%d samples ran after the cancel, want at most 1", after)
			}
		})
	}
}

func TestNoHTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on HT-disabled model")
		}
	}()
	Trace(DefaultConfig(cpu.XeonE2288G()), victim.CNNs()[0])
}

func TestVictimCatalog(t *testing.T) {
	if len(victim.CNNs()) != 4 {
		t.Error("want 4 CNN models")
	}
	if len(victim.Geekbench()) != 10 {
		t.Error("want 10 Geekbench workloads")
	}
	if _, ok := victim.ByName("VGG"); !ok {
		t.Error("VGG missing from catalog")
	}
	if _, ok := victim.ByName("nope"); ok {
		t.Error("bogus workload found")
	}
	for _, w := range victim.CNNs() {
		if w.TotalSamples() <= 0 {
			t.Errorf("%s has empty schedule", w.Name)
		}
		if len(w.PhaseBlocks(0)) == 0 {
			t.Errorf("%s phase blocks empty", w.Name)
		}
	}
}
