package leaky_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	leaky "repro"
	"repro/internal/defense"
)

func TestFacadeModels(t *testing.T) {
	names := map[string]bool{}
	for _, m := range leaky.Models() {
		names[m.Name] = true
	}
	if len(names) != 4 {
		t.Fatal("want 4 models")
	}
	for _, m := range []leaky.Model{leaky.Gold6226(), leaky.XeonE2174G()} {
		if !names[m.Name] {
			t.Errorf("%s missing from the catalog", m.Name)
		}
	}
	if arts := leaky.Experiments(); len(arts) == 0 || arts[0].Name != "tableI" {
		t.Error("the experiment catalog must open with Table I")
	}
}

func TestFacadeChannelRoundTrip(t *testing.T) {
	cs := leaky.ChannelSpec{Model: "Xeon E-2288G", Mechanism: leaky.MechanismEviction}
	m, err := cs.ResolveModel()
	if err != nil {
		t.Fatal(err)
	}
	res := leaky.Transmit(cs.Build(m), m.Name, leaky.Alternating(80))
	if res.ErrorRate > 0.1 {
		t.Errorf("fast channel error %.1f%%", 100*res.ErrorRate)
	}
	if res.RateKbps < 100 {
		t.Errorf("rate %.1f Kbps too low", res.RateKbps)
	}
}

func TestFacadeSpectre(t *testing.T) {
	res := leaky.RunSpectre(leaky.SpectreFrontend, []byte{5, 19})
	if res.L1DMiss != 0 {
		t.Error("frontend Spectre must not touch L1D")
	}
}

// TestFacadeSpecEquivalence asserts the package's two transmit paths
// agree: leaky.Transmit over a spec-built Channel is byte-identical to
// the spec's own Transmit, which resolves the model by name and
// calibrates on the spec's preamble (DefaultCalibBits when unset). The
// per-configuration proof that a spec builds the paper's channels lives
// in internal/spec's TestBuildEquivalence.
func TestFacadeSpecEquivalence(t *testing.T) {
	cases := []struct {
		name string
		spec leaky.ChannelSpec
	}{
		{"fast", leaky.ChannelSpec{Model: "Xeon E-2288G", Mechanism: leaky.MechanismEviction}},
		{"stealthy", leaky.ChannelSpec{Model: "Xeon E-2288G", Mechanism: leaky.MechanismMisalignment, Stealthy: true}},
		{"mt", leaky.ChannelSpec{Model: "Xeon E-2174G", Mechanism: leaky.MechanismEviction, Threading: leaky.ThreadingMT}},
		{"slowswitch", leaky.ChannelSpec{Model: "Xeon E-2288G", Mechanism: leaky.MechanismSlowSwitch}},
		{"sgx", leaky.ChannelSpec{Model: "Xeon E-2174G", Mechanism: leaky.MechanismEviction, SGX: true, Stealthy: true}},
		{"sgxmt", leaky.ChannelSpec{Model: "Xeon E-2174G", Mechanism: leaky.MechanismMisalignment, Threading: leaky.ThreadingMT, SGX: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := leaky.Alternating(24)
			m, err := tc.spec.ResolveModel()
			if err != nil {
				t.Fatal(err)
			}
			want := leaky.Transmit(tc.spec.Build(m), m.Name, msg)
			got, err := tc.spec.Transmit(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("transmit paths diverge:\nTransmit(Build): %#v\nspec Transmit:   %#v", want, got)
			}
		})
	}
}

func TestFacadeEnumerateSpecs(t *testing.T) {
	for _, m := range leaky.Models() {
		for _, s := range leaky.EnumerateSpecs(m) {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: enumerated spec invalid: %v", m.Name, err)
			}
		}
	}
	if n := len(leaky.AllChannelSpecs()); n < 40 {
		t.Errorf("scenario space has %d specs, expected the full catalog's", n)
	}
}

// TestFacadeDefenseAblations exercises the Section XII countermeasures
// through the spec's Defense field: each defense must close its channel
// (residual error near the 0.5 coin-flip), nosmt must forbid MT specs,
// and eqpaths must cost throughput.
func TestFacadeDefenseAblations(t *testing.T) {
	bits := 100
	if testing.Short() {
		bits = 40
	}
	// The stealthy eviction channel on the cleanest machine: its bits
	// execute the same instruction count and differ only in which
	// frontend path serves them.
	stealthy := leaky.ChannelSpec{Model: "Xeon E-2288G", Stealthy: true, CalibBits: 30, Seed: 1}
	eqpaths := stealthy
	eqpaths.Defense = "eqpaths"
	errorRate := func(t *testing.T, cs leaky.ChannelSpec, bits int) float64 {
		t.Helper()
		res, err := cs.Transmit(leaky.Alternating(bits))
		if err != nil {
			t.Fatal(err)
		}
		return res.ErrorRate
	}
	if baseErr := errorRate(t, stealthy, bits); baseErr > 0.1 {
		t.Fatalf("baseline stealthy eviction error %.2f; channel broken before any defense", baseErr)
	}

	cases := []struct {
		name string
		spec leaky.ChannelSpec
		bits int
	}{
		{"EqualizePaths closes the timing channel", eqpaths, bits},
		{"DisableRAPL closes the power channel", leaky.ChannelSpec{Sink: leaky.SinkPower, P: 3000, Seed: 1, Defense: "norapl"}, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := errorRate(t, tc.spec, tc.bits); err < 0.25 {
				t.Errorf("residual error %.2f; a closed channel should approach the 0.5 coin-flip", err)
			} else {
				t.Logf("residual error %.2f", err)
			}
		})
	}

	t.Run("DisableSMT forbids MT specs", func(t *testing.T) {
		if err := (leaky.ChannelSpec{Threading: leaky.ThreadingMT, Defense: "nosmt"}).Validate(); err == nil {
			t.Error("MT spec validated under nosmt")
		}
	})

	t.Run("EqualizePaths costs throughput", func(t *testing.T) {
		eq, ok := defense.Lookup("eqpaths")
		if !ok {
			t.Fatal("eqpaths is not registered")
		}
		m := leaky.Gold6226()
		if cost := defense.PerformanceCost(m, eq.Apply(m), 2); cost <= 1.0 {
			t.Errorf("defense cost %.2fx; equalizing paths should not be free", cost)
		} else {
			t.Logf("slowdown %.2fx", cost)
		}
	})
}

func TestServeCtxShutsDownGracefully(t *testing.T) {
	// Reserve a port, release it, and serve on it: small race, but the
	// retry loop below tolerates a slow start.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- leaky.ServeCtx(ctx, addr, leaky.ServeConfig{}) }()

	healthy := false
	for i := 0; i < 50 && !healthy; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == 200
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !healthy {
		cancel()
		t.Fatalf("daemon on %s never became healthy", addr)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ServeCtx did not return after cancellation")
	}
}

func TestFacadeFingerprint(t *testing.T) {
	m := leaky.Gold6226()
	suite := leaky.CNNWorkloads()
	tr := leaky.FingerprintTrace(m, suite[0], 3)
	if len(tr) != 100 {
		t.Errorf("trace length %d", len(tr))
	}
}

func TestFacadeSweep(t *testing.T) {
	// A small shard through the public one-call path: the undefended
	// slow-switch channels, whose rows must match spec-level
	// transmissions. defense=none pins the pre-defense-axis shard, so
	// the shard stays one row per model.
	f, err := leaky.ParseSweepFilter("mech=slowswitch,defense=none")
	if err != nil {
		t.Fatal(err)
	}
	var streamed []leaky.SweepRow
	report, err := leaky.SweepCtx(context.Background(), f,
		leaky.SweepOptions{Bits: 8, CalibBits: 4, Workers: 2}, func(r leaky.SweepRow) {
			streamed = append(streamed, r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if report.Specs != len(leaky.Models()) || report.Completed != report.Specs {
		t.Fatalf("sweep completed %d/%d, want one row per model", report.Completed, report.Specs)
	}
	if len(streamed) != report.Specs {
		t.Fatalf("emit saw %d rows, want %d", len(streamed), report.Specs)
	}
	for i, row := range report.Rows {
		if streamed[i] != row {
			t.Errorf("streamed row %d differs from the report's", i)
		}
		res, err := row.Spec.Transmit(leaky.Alternating(report.Bits))
		if err != nil {
			t.Fatal(err)
		}
		if row.RateKbps != res.RateKbps || row.ErrorRate != res.ErrorRate {
			t.Errorf("row %s diverges from a direct transmit", row.Canonical)
		}
	}
	// The shard the report ran is the one ExpandSweep names.
	specs, err := leaky.ExpandSweep(f, leaky.SweepOptions{Bits: 8, CalibBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range specs {
		if report.Rows[i].Spec != cs {
			t.Errorf("expanded spec %d differs from the report row: %s vs %s", i, cs, report.Rows[i].Spec)
		}
	}
	if _, err := leaky.ParseSweepFilter("color=red"); err == nil {
		t.Error("ParseSweepFilter accepted a malformed query")
	}
}

// TestFacadeIsDocumented holds the public package to its documented
// library surface: every exported package-level name declared in the
// package's non-test files must appear in README.md as the whole word
// leaky.<Name>. Exporting a name means documenting it there first.
func TestFacadeIsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported = append(exported, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						exported = append(exported, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}
	n := 0
	for _, name := range exported {
		if !ast.IsExported(name) {
			continue
		}
		n++
		if !regexp.MustCompile(`\bleaky\.` + name + `\b`).Match(readme) {
			t.Errorf("leaky.%s is exported but README.md does not document it", name)
		}
	}
	t.Logf("%d exported names", n)
}
