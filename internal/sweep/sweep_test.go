package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/spec"
)

func TestExpandSplitsSeedsDeterministically(t *testing.T) {
	f, err := ParseFilter("sink=timing,sgx=false")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 7}
	a, err := Expand(f, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(f, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of one (filter, options) differ")
	}
	// The shard preserves canonical enumeration order and matches a
	// hand filter of the enumerated space.
	var want []spec.ChannelSpec
	for _, s := range spec.Enumerate(cpu.Models()...) {
		if s.Sink == spec.SinkTiming && !s.SGX {
			want = append(want, s)
		}
	}
	if len(a) != len(want) {
		t.Fatalf("expanded %d specs, want %d", len(a), len(want))
	}
	seen := map[uint64]bool{}
	for i, s := range a {
		ws := want[i]
		ws.Seed = rng.SplitSeed(7, seedLabel(ws))
		if s != ws.Normalize() {
			t.Errorf("spec %d: %s, want %s", i, s, ws.Normalize())
		}
		if seen[s.Seed] {
			t.Errorf("seed collision at %s", s)
		}
		seen[s.Seed] = true
		if err := s.Validate(); err != nil {
			t.Errorf("expanded spec invalid: %v", err)
		}
	}
	// A different base seed re-seeds every spec.
	c, err := Expand(f, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i].Seed == a[i].Seed {
			t.Errorf("spec %d seed did not move with the base seed", i)
		}
	}
}

func TestExpandAppliesScaleOverrides(t *testing.T) {
	all, err := Expand(Filter{}, Options{CalibBits: 4, MaxP: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(spec.Enumerate(cpu.Models()...)) {
		t.Fatalf("scale overrides changed the shard size: %d", len(all))
	}
	for _, s := range all {
		if s.CalibBits != 4 {
			t.Errorf("calib override not applied: %s", s)
		}
		if s.Sink == spec.SinkPower && s.P != 2000 {
			t.Errorf("power spec not clamped: %s", s)
		}
		if s.SGX && s.Threading == spec.ThreadingNonMT && s.P != 1000 {
			// Clamping to 2000 leaves the SGX non-MT floor p=1000 alone.
			t.Errorf("SGX non-MT spec perturbed: %s", s)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("scaled spec invalid: %v", err)
		}
	}
	// A clamp below a validity floor keeps the spec at its floor
	// instead of dropping or corrupting it.
	sgxOnly, err := Expand(Filter{SGX: TriTrue, Threading: "nonmt"}, Options{MaxP: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(sgxOnly) == 0 {
		t.Fatal("SGX non-MT shard empty")
	}
	for _, s := range sgxOnly {
		if s.P != 1000 {
			t.Errorf("clamp below the SGX floor produced p=%d: %s", s.P, s)
		}
	}
	if _, err := Expand(Filter{}, Options{CalibBits: 1}); err == nil {
		t.Error("Expand accepted calib=1")
	}
	// A negative clamp would silently degrade into "no clamp": reject.
	if _, err := Expand(Filter{}, Options{MaxP: -1}); err == nil {
		t.Error("Expand accepted maxp=-1")
	}
	// Hand-built filters ParseFilter never vetted are validated too: a
	// malformed glob (which Match silently never matches) and a comma
	// glob (which cannot round-trip through String) are errors.
	if _, err := Expand(Filter{Model: "["}, Options{}); err == nil {
		t.Error("Expand accepted a malformed glob")
	}
	if _, err := Expand(Filter{Model: "[a,b]"}, Options{}); err == nil {
		t.Error("Expand accepted a comma glob that cannot round-trip")
	}
	if _, err := Expand(Filter{D: Range{Lo: 6, Hi: 2, Set: true}}, Options{}); err == nil {
		t.Error("Expand accepted an inverted hand-built range")
	}
	if _, err := Expand(Filter{SGX: Tri(9)}, Options{}); err == nil {
		t.Error("Expand accepted an out-of-range Tri")
	}
}

// shortScale is the reduced sweep scale the worker-identity tests run
// at: tiny messages and preambles, and the power sink's p clamped so a
// full-space sweep takes seconds, mirroring the -short reductions used
// across the repository.
func shortScale(workers int) Options {
	return Options{Bits: 4, CalibBits: 4, MaxP: 1000, Workers: workers, Seed: 3}
}

// TestRunReportBytesIdenticalAcrossWorkers is the sweep engine's
// headline determinism proof: the whole valid scenario space, swept on
// one worker and on eight, renders and marshals to the same bytes. In
// -short mode the sweep covers the timing slice of the space; the full
// run covers every spec including the power sink.
func TestRunReportBytesIdenticalAcrossWorkers(t *testing.T) {
	f := Filter{}
	if testing.Short() {
		f = Filter{Sink: "timing", SGX: TriFalse}
	}
	serial, err := Run(context.Background(), f, shortScale(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []string
	parallel, err := Run(context.Background(), f, shortScale(8), nil, func(r Row) {
		emitted = append(emitted, r.Canonical)
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Specs == 0 || serial.Completed != serial.Specs {
		t.Fatalf("sweep did not complete: %d/%d", serial.Completed, serial.Specs)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("reports differ between -workers=1 and -workers=8")
	}
	if serial.Render() != parallel.Render() {
		t.Fatal("rendered reports differ between worker counts")
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Fatal("JSON reports differ between worker counts")
	}
	// emit saw every row, in canonical order, despite 8 workers.
	if len(emitted) != parallel.Specs {
		t.Fatalf("emit called %d times, want %d", len(emitted), parallel.Specs)
	}
	for i, c := range emitted {
		if c != parallel.Rows[i].Canonical {
			t.Fatalf("emit order diverged at %d: %s", i, c)
		}
	}
}

func TestRunRowsMatchDirectTransmit(t *testing.T) {
	f, err := ParseFilter("mech=slowswitch,defense=none")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Bits: 8, CalibBits: 4, Seed: 5}
	rep, err := Run(context.Background(), f, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Specs != len(cpu.Models()) {
		t.Fatalf("undefended slowswitch shard has %d specs, want one per model", rep.Specs)
	}
	for _, row := range rep.Rows {
		res, err := row.Spec.Transmit(channel.Alternating(o.Bits))
		if err != nil {
			t.Fatal(err)
		}
		if row.RateKbps != res.RateKbps || row.ErrorRate != res.ErrorRate {
			t.Errorf("row %s diverges from a direct transmit: %v/%v vs %v/%v",
				row.Canonical, row.RateKbps, row.ErrorRate, res.RateKbps, res.ErrorRate)
		}
	}
	if rep.Filter != "mech=slowswitch,defense=none" {
		t.Errorf("report filter %q", rep.Filter)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].N != rep.Specs {
		t.Fatalf("groups %+v, want one slowswitch group of %d", rep.Groups, rep.Specs)
	}
	g := rep.Groups[0]
	if g.MinRate > g.MeanRate || g.MeanRate > g.MaxRate {
		t.Errorf("group stats unordered: %+v", g)
	}
	// The group key is itself a valid filter selecting the group.
	gf, err := ParseFilter(g.Key)
	if err != nil {
		t.Fatalf("group key %q is not a parseable filter: %v", g.Key, err)
	}
	for _, row := range rep.Rows {
		if !gf.Match(row.Spec) {
			t.Errorf("group key %q does not match its own row %s", g.Key, row.Canonical)
		}
	}
}

func TestRunCancellationYieldsPartialReport(t *testing.T) {
	f, err := ParseFilter("sgx=false,sink=timing,thread=nonmt,mech=eviction")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	// Cancel from inside the second spec's transmission: the in-flight
	// spec unwinds at its next checkpoint, later specs never start.
	run := func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
		fired++
		if fired == 2 {
			cancel()
		}
		return cs.TransmitCtx(runctx.New(ctx, nil), channel.Alternating(bits))
	}
	rep, err := Run(ctx, f, Options{Bits: 4, CalibBits: 4}, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed %d rows, want exactly the pre-cancellation one", rep.Completed)
	}
	if rep.Rows[0].Err != "" || rep.Rows[0].RateKbps == 0 {
		t.Errorf("first row should have completed intact: %+v", rep.Rows[0])
	}
	for _, row := range rep.Rows[1:] {
		if !strings.Contains(row.Err, context.Canceled.Error()) {
			t.Errorf("cancelled row %s carries err %q", row.Canonical, row.Err)
		}
	}
	// The completed row is byte-identical to an uncancelled sweep's:
	// per-spec seed splitting makes rows independent of their siblings.
	full, err := Run(context.Background(), f, Options{Bits: 4, CalibBits: 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rows[0] != rep.Rows[0] {
		t.Errorf("cancellation perturbed a completed row:\n%+v\n%+v", full.Rows[0], rep.Rows[0])
	}
	// Groups aggregate only completed rows.
	if len(rep.Groups) != 1 || rep.Groups[0].N != 1 {
		t.Errorf("partial report groups: %+v", rep.Groups)
	}
}
