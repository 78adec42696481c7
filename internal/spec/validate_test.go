package spec

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// brokenRules are specs that each break one rule Enumerate's candidates
// never reach, so every message ValidateFor can build is pinned.
func brokenRules() []ChannelSpec {
	return []ChannelSpec{
		{Mechanism: "bogus"},
		{Threading: "bogus"},
		{Sink: "bogus"},
		{Defense: "bogus"},
		{P: -1},
		{P: maxIterP + 1},
		{Threading: ThreadingMT, P: maxMeasureP + 1},
		{Sink: SinkPower, P: maxPowerP + 1},
		{CalibBits: 1},
		{CalibBits: MaxCalibBits + 1},
		{Mechanism: MechanismSlowSwitch, Contended: true},
		{Mechanism: MechanismSlowSwitch, D: 3},
		{Mechanism: MechanismSlowSwitch, M: 3},
		{D: -1},
		{D: 9},
		{Mechanism: MechanismMisalignment, M: 9},
		{Mechanism: MechanismMisalignment, D: 5, M: 5},
		{M: 7},
		{SGX: true, P: 999},
		{Sink: SinkPower, Contended: true},
		{Threading: ThreadingMT, Mechanism: MechanismMisalignment, Contended: true},
		{Contended: true},
		{Threading: ThreadingMT, Contended: true, Model: "Xeon E-2288G"},
	}
}

// TestValidateForMessages pins ValidateFor's verdict, message and all,
// on every candidate Enumerate weighs (each combination of defense,
// mechanism, threading, sink, SGX, stealthy and catalog model) and on
// specs that break the rules no candidate reaches, and requires
// Enumerate to return exactly the candidates ValidateFor accepts, in
// order.
func TestValidateForMessages(t *testing.T) {
	var b strings.Builder
	var valid []ChannelSpec
	verdict := func(s ChannelSpec, m cpu.Model) {
		msg := "ok"
		if err := s.ValidateFor(m); err != nil {
			msg = err.Error()
		} else {
			valid = append(valid, s.Normalize())
		}
		fmt.Fprintf(&b, "%s | %s\n", s, msg)
	}
	n := 0
	for _, d := range defense.Names() {
		for _, mech := range []Mechanism{MechanismEviction, MechanismMisalignment, MechanismSlowSwitch} {
			for _, thread := range []Threading{ThreadingNonMT, ThreadingMT} {
				for _, sink := range []Sink{SinkTiming, SinkPower} {
					for _, sgxOn := range []bool{false, true} {
						for _, stealthy := range []bool{true, false} {
							for _, m := range cpu.Models() {
								verdict(ChannelSpec{Model: m.Name, Mechanism: mech, Threading: thread,
									Sink: sink, SGX: sgxOn, Stealthy: stealthy, Defense: d}, m)
								n++
							}
						}
					}
				}
			}
		}
	}
	if n != 960 {
		t.Fatalf("weighed %d candidates, want 960", n)
	}
	if got := Enumerate(cpu.Models()...); !reflect.DeepEqual(got, valid) {
		t.Fatalf("Enumerate returned %d specs, want the %d candidates ValidateFor accepts, in order", len(got), len(valid))
	}
	for _, s := range brokenRules() {
		m, ok := cpu.ModelByName(s.Normalize().Model)
		if !ok {
			t.Fatalf("no model for %s", s)
		}
		verdict(s, m)
	}
	path := filepath.Join("testdata", "validatefor.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
