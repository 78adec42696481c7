package sweep

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/rng"
	"repro/internal/spec"
)

// roundTripQueries are well-formed queries and the filters they parse
// to; they also seed FuzzParseFilter's corpus.
var roundTripQueries = []struct {
	query string
	want  Filter
}{
	{"", Filter{}},
	{"mech=eviction", Filter{Mechanism: "eviction"}},
	{"model=xeon*,d=2..6,sgx=true", Filter{Model: "xeon*", D: Range{2, 6, true}, SGX: TriTrue}},
	{"thread=mt,stealthy=false,p=10", Filter{Threading: "mt", Stealthy: TriFalse, P: Range{10, 10, true}}},
	{"sink=power,contended=false,m=8", Filter{Sink: "power", Contended: TriFalse, M: Range{8, 8, true}}},
	// Whitespace and empty clauses are tolerated and canonicalized
	// away; a point range "3..3" canonicalizes to "3".
	{" mech=eviction ,, d=3..3 ", Filter{Mechanism: "eviction", D: Range{3, 3, true}}},
	// Clause order in the input does not matter; String renders the
	// fixed canonical order.
	{"d=1..4,mech=misalignment", Filter{Mechanism: "misalignment", D: Range{1, 4, true}}},
	// A zero point range is a real constraint, distinct from the
	// unconstrained zero Filter.
	{"m=0", Filter{M: Range{0, 0, true}}},
	// The defense axis: literals and open globs both round-trip.
	{"defense=nosmt", Filter{Defense: "nosmt"}},
	{"mech=eviction,defense=no*", Filter{Mechanism: "eviction", Defense: "no*"}},
}

func TestParseFilterRoundTrip(t *testing.T) {
	for _, tc := range roundTripQueries {
		f, err := ParseFilter(tc.query)
		if err != nil {
			t.Errorf("ParseFilter(%q): %v", tc.query, err)
			continue
		}
		if f != tc.want {
			t.Errorf("ParseFilter(%q) = %#v, want %#v", tc.query, f, tc.want)
		}
		back, err := ParseFilter(f.String())
		if err != nil {
			t.Errorf("ParseFilter(%q.String() = %q): %v", tc.query, f.String(), err)
			continue
		}
		if back != f {
			t.Errorf("round trip changed the filter: %q -> %q", tc.query, f.String())
		}
		// The canonical string is a fixed point.
		if back.String() != f.String() {
			t.Errorf("String not canonical: %q vs %q", back.String(), f.String())
		}
	}
}

// TestFilterStringRoundTripProperty drives random hand-built filters —
// including ones no query could produce — through validate and String.
// The property: every filter validate accepts satisfies
// ParseFilter(f.String()) == f, and every other one is rejected with an
// error rather than rendering a query that silently reparses to a
// different filter. This is what caught the two hand-built escapes the
// parse-direction table never could: glob patterns with surrounding
// whitespace (String renders them, but the grammar's clause trimming
// eats the spaces on the way back) and bounds on an unset Range (String
// drops the clause, so the reparse compares unequal).
func TestFilterStringRoundTripProperty(t *testing.T) {
	r := rng.New(11)
	// Mostly-valid values with a junk tail, so the run exercises both the
	// round-trip property and the reject-up-front property in bulk.
	goodGlobs := []string{"", "xeon*", "Gold 6226", "*", "ev?ction", "[gx]*", "a=b"}
	junkGlobs := []string{" xeon", "xeon ", " ", "[", "a,b"}
	randGlob := func() string {
		if r.Bool(0.2) {
			return junkGlobs[r.Intn(len(junkGlobs))]
		}
		return goodGlobs[r.Intn(len(goodGlobs))]
	}
	goodDefenses := append([]string{"", "no*", "n?smt"}, defense.Names()...)
	randDefense := func() string {
		if r.Bool(0.2) {
			return []string{" nosmt", "nosnt", "no,smt"}[r.Intn(3)]
		}
		return goodDefenses[r.Intn(len(goodDefenses))]
	}
	randTri := func() Tri {
		if r.Bool(0.2) {
			return Tri(3 + r.Intn(3))
		}
		return Tri(r.Intn(3))
	}
	randRange := func() Range {
		if r.Bool(0.2) {
			return Range{Lo: r.Intn(9) - 2, Hi: r.Intn(9) - 2, Set: r.Bool(0.7)}
		}
		if r.Bool(0.4) {
			return Range{}
		}
		lo := r.Intn(7)
		return Range{Lo: lo, Hi: lo + r.Intn(4), Set: true}
	}
	seen := 0
	for i := 0; i < 3000; i++ {
		f := Filter{
			Model:     randGlob(),
			Mechanism: randGlob(),
			Threading: randGlob(),
			Sink:      randGlob(),
			SGX:       randTri(),
			Stealthy:  randTri(),
			Contended: randTri(),
			Defense:   randDefense(),
			D:         randRange(),
			M:         randRange(),
			P:         randRange(),
		}
		if err := f.validate(); err != nil {
			continue // rejected up front is the correct outcome for junk
		}
		seen++
		q := f.String()
		back, err := ParseFilter(q)
		if err != nil {
			t.Fatalf("validate accepted %#v but String rendered unparseable %q: %v", f, q, err)
		}
		if back != f {
			t.Fatalf("round trip changed the filter: %#v -> %q -> %#v", f, q, back)
		}
	}
	if seen < 100 {
		t.Fatalf("only %d of 3000 random filters were valid; generator too hostile to prove anything", seen)
	}
}

// malformedQueries are queries ParseFilter must reject, with a phrase
// the error must carry; they also seed FuzzParseFilter's corpus.
var malformedQueries = []struct {
	name, query, want string
}{
	{"unknown key", "color=red", "unknown key"},
	{"duplicate key", "d=1,d=2", "duplicate key"},
	{"missing value", "mech=", "want key=value"},
	{"missing equals", "eviction", "want key=value"},
	{"bad boolean", "sgx=maybe", "bad boolean"},
	{"bad glob", "model=[", "bad pattern"},
	{"inverted range", "d=6..2", "bad range"},
	{"negative range", "d=-1", "bad range"},
	{"non-numeric range", "p=ten", "bad bound"},
	{"half range", "p=1..", "bad bound"},
	// The defense catalog is closed: a literal that names no
	// registered defense is a typo, not an empty shard.
	{"unknown defense literal", "defense=nosnt", "unknown defense"},
	{"bad defense glob", "defense=[", "bad pattern"},
}

func TestParseFilterRejectsMalformedQueries(t *testing.T) {
	for _, tc := range malformedQueries {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFilter(tc.query)
			if err == nil {
				t.Fatalf("ParseFilter(%q) accepted a malformed query", tc.query)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzParseFilter fuzzes the filter grammar, an untrusted input that
// reaches the daemon through /v1/channels?filter= and /v1/sweeps. The
// property: whatever ParseFilter accepts, its String parses back to an
// equal Filter, and String is a fixed point of that round trip.
func FuzzParseFilter(f *testing.F) {
	for _, tc := range roundTripQueries {
		f.Add(tc.query)
	}
	for _, tc := range malformedQueries {
		f.Add(tc.query)
	}
	f.Fuzz(func(t *testing.T, query string) {
		flt, err := ParseFilter(query)
		if err != nil {
			return
		}
		canon := flt.String()
		back, err := ParseFilter(canon)
		if err != nil {
			t.Fatalf("ParseFilter(%q) accepted, but its String %q does not parse: %v", query, canon, err)
		}
		if back != flt {
			t.Fatalf("round trip changed the filter: %q -> %#v -> %q -> %#v", query, flt, canon, back)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String is not a fixed point: %q -> %q", canon, again)
		}
	})
}

func TestFilterMatch(t *testing.T) {
	all := spec.Enumerate(cpu.Models()...)
	count := func(query string) int {
		t.Helper()
		f, err := ParseFilter(query)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", query, err)
		}
		n := 0
		for _, s := range all {
			if f.Match(s) {
				n++
			}
		}
		return n
	}
	if n := count(""); n != len(all) {
		t.Errorf("empty filter matched %d of %d specs", n, len(all))
	}
	// Globs are case-insensitive; the two spellings select the same
	// slice, and per-model counts match Enumerate's per-model counts.
	if a, b := count("model=Gold*"), count("model=gold*"); a != b || a != len(spec.Enumerate(cpu.Gold6226())) {
		t.Errorf("model glob counts: %d vs %d, want %d", a, b, len(spec.Enumerate(cpu.Gold6226())))
	}
	// Structural identities of the enumerated space.
	if got, want := count("mech=slowswitch"), count("mech=slowswitch,thread=nonmt,sink=timing,sgx=false"); got != want {
		t.Errorf("slowswitch slice %d != its only valid variant %d", got, want)
	}
	if got := count("sink=power,sgx=true"); got != 0 {
		t.Errorf("power+SGX matched %d specs, want 0 (impossible combo)", got)
	}
	if got, want := count("thread=mt"), count("thread=mt,stealthy=false"); got != want {
		t.Errorf("MT slice %d != MT fast slice %d (MT has no stealthy variant)", got, want)
	}
	// d ranges select among the enumerated defaults: eviction d=6,
	// misalignment d=5.
	if got, want := count("d=6..8"), count("mech=eviction"); got != want {
		t.Errorf("d=6..8 matched %d, want the eviction slice %d", got, want)
	}
	if got := count("d=1..4"); got != 0 {
		t.Errorf("d=1..4 matched %d specs, want 0 (no enumerated default below 5)", got)
	}
	// p point ranges distinguish the protocol families.
	if got, want := count("p=120000"), count("sink=power"); got != want {
		t.Errorf("p=120000 matched %d, want the power slice %d", got, want)
	}
	// m=0 constrains (everything but misalignment, whose default is
	// m=8) rather than degenerating into the unconstrained zero Range.
	if got, want := count("m=0"), len(all)-count("mech=misalignment"); got != want {
		t.Errorf("m=0 matched %d, want the non-misalignment slice %d", got, want)
	}
	// Defense identities: the axis partitions the space, norapl keeps
	// exactly the power slice, and an open glob unions its literals.
	sum := 0
	for _, d := range defense.Names() {
		sum += count("defense=" + d)
	}
	if sum != len(all) {
		t.Errorf("defense slices sum to %d, want the whole space %d", sum, len(all))
	}
	if got, want := count("defense=norapl"), count("sink=power,defense=norapl"); got != want || got == 0 {
		t.Errorf("norapl slice %d, want its power-only slice %d (nonzero)", got, want)
	}
	if got, want := count("defense=no*"), count("defense=none")+count("defense=nosmt")+count("defense=norapl"); got != want {
		t.Errorf("defense=no* matched %d, want none+nosmt+norapl = %d", got, want)
	}
	if got := count("defense=nosmt,thread=mt"); got != 0 {
		t.Errorf("nosmt x MT matched %d specs, want 0 (the defense removes the substrate)", got)
	}
}
