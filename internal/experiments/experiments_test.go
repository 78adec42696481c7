package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// small returns the test scale: reduced-but-representative by default,
// further trimmed under -short so the tier-1 loop stays fast.
func small() Opts {
	if testing.Short() {
		return Opts{Bits: 30, Seed: 1}
	}
	return Opts{Bits: 60, Seed: 1}
}

func TestTableI(t *testing.T) {
	s := TableI()
	for _, want := range []string{"Gold 6226", "Xeon E-2174G", "Xeon E-2286G", "Xeon E-2288G", "Cascade Lake"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFigure2Ordering(t *testing.T) {
	d, s, err := Figure2(RunCtx{}, small())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "MITE+DSB") {
		t.Error("rendering incomplete")
	}
	if !(stats.Mean(d.DSB) < stats.Mean(d.LSD) && stats.Mean(d.LSD) < stats.Mean(d.MITE)) {
		t.Errorf("path ordering violated: DSB=%.0f LSD=%.0f MITE=%.0f",
			stats.Mean(d.DSB), stats.Mean(d.LSD), stats.Mean(d.MITE))
	}
}

func TestFigure4Shape(t *testing.T) {
	rows, _, _ := Figure4(RunCtx{}, small())
	mixed, ordered := rows[0], rows[1]
	if mixed.IPC <= ordered.IPC {
		t.Errorf("mixed IPC %.2f should exceed ordered %.2f", mixed.IPC, ordered.IPC)
	}
	if ordered.LCPStallCyc <= mixed.LCPStallCyc {
		t.Error("ordered issue should accumulate more LCP stall cycles")
	}
	if mixed.SwitchPenalty <= ordered.SwitchPenalty*10 {
		t.Errorf("mixed switch penalty (%.2e) should dwarf ordered (%.2e)",
			mixed.SwitchPenalty, ordered.SwitchPenalty)
	}
}

func TestTableIIShape(t *testing.T) {
	res, _, _ := TableII(RunCtx{}, small())
	if len(res) != 12 {
		t.Fatalf("got %d rows, want 12", len(res))
	}
	// Constant patterns decode better than random.
	var constErr, randErr float64
	for _, r := range res {
		switch r.Channel {
		case "All 0s", "All 1s":
			constErr += r.ErrorRate
		case "Random":
			randErr += r.ErrorRate
		}
	}
	if constErr/6 >= randErr/3+0.01 {
		t.Errorf("constant-pattern error (%.3f) should be below random (%.3f)", constErr/6, randErr/3)
	}
}

func TestTableIIIShape(t *testing.T) {
	res, _, _ := TableIII(RunCtx{}, small())
	// 4 models x 2 kinds x 2 variants non-MT + 3 models x 2 kinds MT.
	if len(res) != 22 {
		t.Fatalf("got %d rows, want 22", len(res))
	}
	var nonMTMin, mtMax float64 = 1e18, 0
	for _, r := range res {
		if strings.HasPrefix(r.Channel, "Non-MT") {
			if r.RateKbps < nonMTMin {
				nonMTMin = r.RateKbps
			}
		} else if r.RateKbps > mtMax {
			mtMax = r.RateKbps
		}
	}
	if nonMTMin <= mtMax {
		t.Errorf("every non-MT rate (min %.0f) should beat every MT rate (max %.0f)", nonMTMin, mtMax)
	}
}

func TestTableIVShape(t *testing.T) {
	res, _, _ := TableIV(RunCtx{}, small())
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	if res[1].RateKbps <= res[0].RateKbps {
		t.Error("E-2288G slow-switch should beat Gold 6226 (Table IV)")
	}
}

func TestTableVIIShape(t *testing.T) {
	res, _, _ := TableVII(RunCtx{}, small())
	rates := map[string]float64{}
	for _, r := range res {
		rates[r.Channel.String()] = r.L1MissRate
	}
	if !(rates["Frontend"] < rates["L1I F+R"] && rates["L1I F+R"] < rates["MEM F+R"] &&
		rates["MEM F+R"] < rates["L1D F+R"]) {
		t.Errorf("Table VII ordering violated: %v", rates)
	}
}

func TestFigure8RateRisesWithD(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, _, _ := Figure8(RunCtx{}, Opts{Bits: 60, Seed: 1})
	// For each model, rate at d=8 should exceed rate at d=1.
	byModel := map[string]map[int]Figure8Point{}
	for _, p := range pts {
		if byModel[p.Model] == nil {
			byModel[p.Model] = map[int]Figure8Point{}
		}
		byModel[p.Model][p.D] = p
	}
	for m, mp := range byModel {
		if mp[8].RateKbps <= mp[1].RateKbps {
			t.Errorf("%s: rate(d=8)=%.0f should exceed rate(d=1)=%.0f", m, mp[8].RateKbps, mp[1].RateKbps)
		}
	}
}

func TestFigure9Ordering(t *testing.T) {
	d, _, _ := Figure9(RunCtx{}, small())
	if !(stats.Mean(d.LSD) < stats.Mean(d.DSB) && stats.Mean(d.DSB) < stats.Mean(d.MITE)) {
		t.Errorf("power ordering violated: LSD=%.1f DSB=%.1f MITE=%.1f",
			stats.Mean(d.LSD), stats.Mean(d.DSB), stats.Mean(d.MITE))
	}
}

func TestFigure10Detects(t *testing.T) {
	obs, s, _ := Figure10(RunCtx{}, small())
	if obs[0].Ratio() <= obs[1].Ratio() {
		t.Error("patch1 timing ratio should exceed patch2's")
	}
	if !strings.Contains(s, "patch1 -> patch1") || !strings.Contains(s, "patch2 -> patch2") {
		t.Errorf("detector output wrong:\n%s", s)
	}
}

func TestFigure11Traces(t *testing.T) {
	o := small()
	want := 100
	if testing.Short() {
		o.Samples, want = 40, 40
	}
	traces, _, _ := Figure11(RunCtx{}, o)
	if len(traces) != 4 {
		t.Fatalf("want 4 CNN traces")
	}
	for name, tr := range traces {
		if len(tr) != want {
			t.Errorf("%s trace length %d, want %d", name, len(tr), want)
		}
	}
}

// TestTableRowsAreTraced: a traced channel table runs each row as a
// sweep spec — one sweep.spec span per row, carrying the row's cache
// key, with the row's channel transmission nested under it — and
// tracing changes no byte of the table.
func TestTableRowsAreTraced(t *testing.T) {
	o := Opts{Bits: 8, Seed: 1}
	_, plain, err := TableIV(RunCtx{}, o)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("", "tableIV")
	_, traced, err := TableIV(NewRunCtx(tr.Context(context.Background()), nil), o)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if traced != plain {
		t.Errorf("traced Table IV differs from untraced:\n%s\nvs\n%s", traced, plain)
	}
	spans := tr.Spans()
	var rows []obs.SpanData
	for _, sp := range spans {
		if sp.Name == "sweep.spec" {
			rows = append(rows, sp)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("traced Table IV has %d sweep.spec spans, want one per row (2)", len(rows))
	}
	for _, row := range rows {
		if row.Attrs["cachekey"] == "" {
			t.Errorf("sweep.spec span %d carries no cachekey: %v", row.ID, row.Attrs)
		}
		transmits := 0
		for _, sp := range spans {
			if sp.Parent == row.ID && sp.Name == "channel.transmit" {
				transmits++
			}
		}
		if transmits != 1 {
			t.Errorf("sweep.spec span %s has %d channel.transmit children, want 1", row.Attrs["spec"], transmits)
		}
	}
}
