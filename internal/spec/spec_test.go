package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/sgx"
)

func TestNormalizeMatchesPaperDefaults(t *testing.T) {
	// The zero spec must normalize to exactly the paper's fast non-MT
	// eviction configuration: attack.DefaultNonMT's defaults and the
	// spec defaults are one source of truth.
	s := ChannelSpec{}.Normalize()
	def := attack.DefaultNonMT(cpu.Gold6226(), attack.Eviction, false)
	if s.Model != "Gold 6226" || s.Mechanism != MechanismEviction ||
		s.Threading != ThreadingNonMT || s.Sink != SinkTiming {
		t.Fatalf("zero spec normalized to %s", s)
	}
	if s.D != def.D || s.P != def.P || s.Seed != def.Seed {
		t.Errorf("normalized d=%d p=%d seed=%d; attack default d=%d p=%d seed=%d",
			s.D, s.P, s.Seed, def.D, def.P, def.Seed)
	}
	if s.CalibBits != DefaultCalibBits {
		t.Errorf("calib normalized to %d, want %d", s.CalibBits, DefaultCalibBits)
	}

	mis := ChannelSpec{Mechanism: MechanismMisalignment}.Normalize()
	misDef := attack.DefaultNonMT(cpu.Gold6226(), attack.Misalignment, false)
	if mis.D != misDef.D || mis.M != misDef.M {
		t.Errorf("misalignment normalized d=%d m=%d, want d=%d m=%d", mis.D, mis.M, misDef.D, misDef.M)
	}

	pow := ChannelSpec{Sink: SinkPower}.Normalize()
	if pow.P != attack.DefaultPower(cpu.Gold6226(), attack.Eviction).Iters {
		t.Errorf("power p normalized to %d", pow.P)
	}
	mt := ChannelSpec{Threading: ThreadingMT}.Normalize()
	if mt.P != attack.DefaultMT(cpu.Gold6226(), attack.Eviction).Measurements {
		t.Errorf("MT p normalized to %d", mt.P)
	}
	enclave := ChannelSpec{Model: "Xeon E-2174G", SGX: true}.Normalize()
	if enclave.P != sgx.NonMTIters {
		t.Errorf("SGX non-MT p normalized to %d, want %d", enclave.P, sgx.NonMTIters)
	}

	// Model names canonicalize case-insensitively.
	if got := (ChannelSpec{Model: "gold 6226"}).Normalize().Model; got != "Gold 6226" {
		t.Errorf("model canonicalized to %q", got)
	}
}

func TestValidateRejectsImpossibleCombos(t *testing.T) {
	cases := []struct {
		name string
		s    ChannelSpec
		want string // substring of the error
	}{
		{"unknown model", ChannelSpec{Model: "Pentium"}, "unknown model"},
		{"unknown mechanism", ChannelSpec{Mechanism: "voodoo"}, "unknown mechanism"},
		{"unknown threading", ChannelSpec{Threading: "smt4"}, "unknown threading"},
		{"unknown sink", ChannelSpec{Sink: "acoustic"}, "unknown sink"},
		{"MT without SMT", ChannelSpec{Model: "Xeon E-2288G", Threading: ThreadingMT}, "hyper-threading is disabled"},
		{"MT stealthy", ChannelSpec{Threading: ThreadingMT, Stealthy: true}, "no stealthy variant"},
		{"SGX without SGX", ChannelSpec{Model: "Gold 6226", SGX: true}, "no SGX support"},
		{"power MT", ChannelSpec{Threading: ThreadingMT, Sink: SinkPower}, "non-MT only"},
		{"power SGX", ChannelSpec{Model: "Xeon E-2174G", SGX: true, Sink: SinkPower}, "power+SGX is impossible"},
		{"power stealthy", ChannelSpec{Sink: SinkPower, Stealthy: true}, "stealthy does not apply"},
		{"slowswitch MT", ChannelSpec{Mechanism: MechanismSlowSwitch, Threading: ThreadingMT}, "non-MT only"},
		{"slowswitch power", ChannelSpec{Mechanism: MechanismSlowSwitch, Sink: SinkPower}, "no power variant"},
		{"slowswitch SGX", ChannelSpec{Model: "Xeon E-2174G", Mechanism: MechanismSlowSwitch, SGX: true}, "no SGX variant"},
		{"slowswitch stealthy", ChannelSpec{Mechanism: MechanismSlowSwitch, Stealthy: true}, "no stealthy variant"},
		{"slowswitch d", ChannelSpec{Mechanism: MechanismSlowSwitch, D: 4}, "no d/m"},
		{"d too large", ChannelSpec{D: 9}, "out of range"},
		{"d negative", ChannelSpec{D: -1}, "out of range"},
		{"misalignment m <= d", ChannelSpec{Mechanism: MechanismMisalignment, D: 5, M: 5}, "m > d"},
		{"misalignment m too large", ChannelSpec{Mechanism: MechanismMisalignment, M: 9}, "out of range"},
		{"m on eviction", ChannelSpec{Mechanism: MechanismEviction, M: 7}, "only to the misalignment"},
		{"contended non-MT", ChannelSpec{Contended: true}, "only to the MT eviction"},
		{"contended MT misalignment", ChannelSpec{Threading: ThreadingMT, Mechanism: MechanismMisalignment, Contended: true}, "only to the MT eviction"},
		{"p negative", ChannelSpec{P: -3}, "out of range"},
		{"p beyond the simulator budget", ChannelSpec{P: 100_000_000}, "out of range"},
		{"MT p beyond the decode-pass cap", ChannelSpec{Threading: ThreadingMT, P: 50_000}, "out of range"},
		{"power p beyond the iteration cap", ChannelSpec{Sink: SinkPower, P: 2_000_000}, "out of range"},
		{"calib too small", ChannelSpec{CalibBits: 1}, "calib=1 out of range"},
		{"calib too large", ChannelSpec{CalibBits: 100_000}, "out of range"},
		{"SGX small p", ChannelSpec{Model: "Xeon E-2174G", SGX: true, P: 10}, "p >= 1000"},
		{"unknown defense", ChannelSpec{Defense: "tinfoil"}, "unknown defense"},
		{"nosmt MT", ChannelSpec{Threading: ThreadingMT, Defense: "nosmt"}, "eliminates the MT channels"},
		{"nosmt without SMT", ChannelSpec{Model: "Xeon E-2288G", Defense: "nosmt"}, "already disabled"},
		{"norapl timing", ChannelSpec{Defense: "norapl"}, "no-op for timing sinks"},
		{"partition without SMT", ChannelSpec{Model: "Xeon E-2288G", Defense: "partition"}, "never partitions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if err == nil {
				t.Fatalf("Validate(%s) accepted an impossible combo", tc.s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsDefaultsAndBuildPanicsOnInvalid(t *testing.T) {
	if err := (ChannelSpec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Build of an invalid spec must panic, as the attack constructors do")
		}
	}()
	ChannelSpec{Threading: ThreadingMT}.Build(cpu.XeonE2288G())
}

func TestEnumerate(t *testing.T) {
	// Per-model valid-scenario counts: a plain HT model has 4 non-MT
	// timing variants + 2 MT + 1 slow-switch + 2 power = 9; SGX adds 4
	// enclave non-MT + 2 enclave MT; disabling SMT removes the 2+2 MT.
	// The defense axis multiplies the space: defense=none keeps the full
	// per-model count; nosmt keeps the non-MT subset (and drops off the
	// already-SMT-less E-2288G); eqpaths keeps everything; norapl keeps
	// only the 2 power variants; partition keeps everything on HT models
	// and nothing on the E-2288G.
	counts := map[string]int{
		"Gold 6226":    36, // 9 none + 7 nosmt + 9 eqpaths + 2 norapl + 9 partition
		"Xeon E-2174G": 58, // 15 + 11 + 15 + 2 + 15
		"Xeon E-2286G": 58, // 15 + 11 + 15 + 2 + 15
		"Xeon E-2288G": 24, // 11 + 0 + 11 + 2 + 0
	}
	total := 0
	for _, m := range cpu.Models() {
		specs := Enumerate(m)
		total += len(specs)
		if len(specs) != counts[m.Name] {
			t.Errorf("%s: %d specs, want %d", m.Name, len(specs), counts[m.Name])
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Errorf("enumerated spec invalid: %v", err)
			}
			if s != s.Normalize() {
				t.Errorf("enumerated spec not normalized: %s", s)
			}
			if seen[s.CacheKey()] {
				t.Errorf("duplicate spec %s", s)
			}
			seen[s.CacheKey()] = true
			// Every enumerated spec must actually construct.
			s.Build(m)
		}
	}
	if all := Enumerate(cpu.Models()...); len(all) != total {
		t.Errorf("Enumerate(all models) = %d specs, want %d", len(all), total)
	}
}

// TestEnumerateAllocatesLittle holds one expansion of the catalog, which
// every table, sweep, advisory and /v1/channels listing pays, to about
// twice the 15 allocations it makes when rejecting a candidate builds no
// message: formatting the 784 rejections' messages took 1,621.
func TestEnumerateAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	models := cpu.Models()
	if allocs := testing.AllocsPerRun(5, func() { Enumerate(models...) }); allocs > 32 {
		t.Fatalf("Enumerate of the catalog allocates %.0f times, want at most 32", allocs)
	}
}

// keep returns the specs pred accepts, preserving order.
func keep(specs []ChannelSpec, pred func(ChannelSpec) bool) []ChannelSpec {
	var out []ChannelSpec
	for _, s := range specs {
		if pred(s) {
			out = append(out, s)
		}
	}
	return out
}

func TestEnumerateOrderMatchesChannelTables(t *testing.T) {
	// Table III's row order must fall out of the canonical enumeration
	// order: per mechanism, non-MT stealthy rows, then fast, then MT.
	// The paper tables read the undefended baseline, so the predicate
	// pins defense=none — and because the defense axis is outermost,
	// those rows keep their exact historical positions.
	all := Enumerate(cpu.Models()...)
	specs := keep(all, func(s ChannelSpec) bool {
		return s.Sink == SinkTiming && !s.SGX && s.Mechanism != MechanismSlowSwitch &&
			s.Defense == defense.DefenseNone
	})
	for i, s := range keep(all, func(s ChannelSpec) bool { return s.Defense == defense.DefenseNone }) {
		if all[i] != s {
			t.Fatalf("defense=none block is not the leading slice of the enumeration (index %d: %s)", i, all[i])
		}
	}
	if len(specs) != 22 {
		t.Fatalf("Table III space has %d specs, want 22", len(specs))
	}
	names := make([]string, 0, 6)
	for _, s := range specs {
		n := string(s.Mechanism) + "/" + string(s.Threading) + "/stealthy=" + map[bool]string{true: "1", false: "0"}[s.Stealthy]
		if len(names) == 0 || names[len(names)-1] != n {
			names = append(names, n)
		}
	}
	want := []string{
		"eviction/nonmt/stealthy=1", "eviction/nonmt/stealthy=0", "eviction/mt/stealthy=0",
		"misalignment/nonmt/stealthy=1", "misalignment/nonmt/stealthy=0", "misalignment/mt/stealthy=0",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("variant order %v, want %v", names, want)
	}
}

func TestCanonicalEncoding(t *testing.T) {
	a := ChannelSpec{Model: "gold 6226"}
	b := ChannelSpec{Model: "Gold 6226", Mechanism: MechanismEviction, Threading: ThreadingNonMT,
		Sink: SinkTiming, Defense: "none", D: 6, P: 10, CalibBits: 40, Seed: 1}
	if a.String() != b.String() || a.CacheKey() != b.CacheKey() {
		t.Errorf("two spellings of one scenario differ:\n%s\n%s", a, b)
	}
	// v2 added the defense clause to the identity; v1 keys must be
	// unreachable so undefended cache entries never alias defended runs.
	if !strings.HasPrefix(a.CacheKey(), "chan-v2|") {
		t.Errorf("cache key %q not versioned", a.CacheKey())
	}
	if !strings.Contains(a.String(), ",defense=none,") {
		t.Errorf("canonical encoding %q lacks the defense clause", a.String())
	}
	defended := b
	defended.Defense = "eqpaths"
	if defended.CacheKey() == b.CacheKey() {
		t.Error("defense not part of the cache key")
	}
	// Defense names canonicalize case-insensitively like model names.
	if got := (ChannelSpec{Defense: "EqPaths"}).Normalize().Defense; got != "eqpaths" {
		t.Errorf("defense canonicalized to %q", got)
	}
	// Identity is the canonical encoding minus the seed clause; specs
	// differing only by seed share it.
	if a.String() != a.Identity()+",seed=1" {
		t.Errorf("String %q is not Identity %q + seed clause", a.String(), a.Identity())
	}
	seeded := b
	seeded.Seed = 99
	if seeded.Identity() != b.Identity() {
		t.Error("Identity varies with the seed")
	}
	c := b
	c.Seed = 2
	if c.CacheKey() == b.CacheKey() {
		t.Error("seed not part of the cache key")
	}
	d := b
	d.CalibBits = 30
	if d.CacheKey() == b.CacheKey() {
		t.Error("calib not part of the cache key")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := ChannelSpec{Model: "Xeon E-2174G", Mechanism: MechanismMisalignment,
		Threading: ThreadingMT, D: 3, Seed: 7}
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back ChannelSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip changed the spec: %s -> %s", orig, back)
	}
	// The zero value's JSON is {}: a spec only states what deviates.
	if blob, _ := json.Marshal(ChannelSpec{}); string(blob) != "{}" {
		t.Errorf("zero spec marshals to %s", blob)
	}
}

// TestBuildEquivalence is the redesign's headline proof: for each of
// the paper's seven named channels, built by hand from the attack and
// sgx packages' default configurations, the same scenario expressed as
// a ChannelSpec builds a channel whose Transmit result — rate, error
// rate, received bits, rendered row — is byte-identical for the same
// seed. Each case is named after the constructor the public package
// once had for it.
func TestBuildEquivalence(t *testing.T) {
	ht := cpu.XeonE2174G() // HT + SGX: every variant exists here or on Gold
	gold := cpu.Gold6226()
	bits, calib := 24, 10
	powerIters, sgxP := 120_000, sgx.NonMTIters
	if testing.Short() {
		bits, powerIters = 16, 3000
	}
	cases := []struct {
		name  string
		model cpu.Model
		ctor  func(m cpu.Model) channel.BitChannel
		spec  ChannelSpec
	}{
		{"NewFastCovertChannel", gold,
			func(m cpu.Model) channel.BitChannel {
				return attack.NewNonMT(attack.DefaultNonMT(m, attack.Eviction, false))
			},
			ChannelSpec{Mechanism: MechanismEviction}},
		{"NewStealthyCovertChannel", gold,
			func(m cpu.Model) channel.BitChannel {
				return attack.NewNonMT(attack.DefaultNonMT(m, attack.Misalignment, true))
			},
			ChannelSpec{Mechanism: MechanismMisalignment, Stealthy: true}},
		{"NewMTCovertChannel", ht,
			func(m cpu.Model) channel.BitChannel { return attack.NewMT(attack.DefaultMT(m, attack.Eviction)) },
			ChannelSpec{Mechanism: MechanismEviction, Threading: ThreadingMT}},
		{"NewSlowSwitchChannel", gold,
			func(m cpu.Model) channel.BitChannel { return attack.NewSlowSwitch(attack.DefaultSlowSwitch(m)) },
			ChannelSpec{Mechanism: MechanismSlowSwitch}},
		{"NewPowerChannel", gold,
			func(m cpu.Model) channel.BitChannel {
				cfg := attack.DefaultPower(m, attack.Eviction)
				cfg.Iters = powerIters
				return attack.NewPower(cfg)
			},
			ChannelSpec{Mechanism: MechanismEviction, Sink: SinkPower, P: powerIters}},
		{"NewSGXChannel", ht,
			func(m cpu.Model) channel.BitChannel {
				cfg := attack.DefaultNonMT(m, attack.Eviction, false)
				cfg.P = sgxP
				return sgx.NewNonMT(cfg)
			},
			ChannelSpec{Mechanism: MechanismEviction, SGX: true, P: sgxP}},
		{"NewSGXMTChannel", ht,
			func(m cpu.Model) channel.BitChannel { return sgx.NewMT(attack.DefaultMT(m, attack.Misalignment)) },
			ChannelSpec{Mechanism: MechanismMisalignment, Threading: ThreadingMT, SGX: true}},
		// Defended specs: Build must apply the defense transform before
		// constructing, matching a build on a model defended by hand
		// with the registry's transform.
		{"EqualizePathsSpec", gold,
			func(m cpu.Model) channel.BitChannel {
				return attack.NewNonMT(attack.DefaultNonMT(defended(t, defense.DefenseEqualizePaths, m), attack.Eviction, true))
			},
			ChannelSpec{Mechanism: MechanismEviction, Stealthy: true, Defense: "eqpaths"}},
		{"PartitionSpec", ht,
			func(m cpu.Model) channel.BitChannel {
				return attack.NewMT(attack.DefaultMT(defended(t, defense.DefensePartition, m), attack.Eviction))
			},
			ChannelSpec{Mechanism: MechanismEviction, Threading: ThreadingMT, Defense: "partition"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := channel.Alternating(bits)
			want := channel.Transmit(tc.ctor(tc.model), tc.model.Name, msg, calib)
			got := channel.Transmit(tc.spec.Build(tc.model), tc.model.Name, msg, calib)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("spec-built channel diverges from constructor:\nctor: %#v\nspec: %#v", want, got)
			}
			if want.String() != got.String() {
				t.Errorf("rendered rows differ:\n%s\n%s", want, got)
			}
		})
	}
}

// defended returns m under the registered defense's transform.
func defended(t *testing.T, name string, m cpu.Model) cpu.Model {
	t.Helper()
	d, ok := defense.Lookup(name)
	if !ok {
		t.Fatalf("defense %q is not registered", name)
	}
	return d.Apply(m)
}

func TestTransmitUsesSpecCalibration(t *testing.T) {
	bits := 24
	msg := channel.Alternating(bits)
	s := ChannelSpec{Model: "Xeon E-2288G", CalibBits: 12, Seed: 3}
	got, err := s.Transmit(msg)
	if err != nil {
		t.Fatal(err)
	}
	want := channel.Transmit(s.Build(cpu.XeonE2288G()), "Xeon E-2288G", msg, 12)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Transmit did not honor the spec calibration:\n%#v\n%#v", want, got)
	}
	if _, err := (ChannelSpec{Model: "nope"}).Transmit(msg); err == nil {
		t.Error("Transmit accepted an unresolvable model")
	}
	if _, err := (ChannelSpec{Model: "Xeon E-2288G", Threading: ThreadingMT}).Transmit(msg); err == nil {
		t.Error("Transmit accepted an invalid scenario")
	}
}
