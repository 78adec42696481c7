package fsum

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// plainRepeat is the loop Repeat must match.
func plainRepeat(x float64, adds []float64, k uint64) float64 {
	for range k {
		for _, a := range adds {
			x += a
		}
	}
	return x
}

// unit returns the spacing of doubles in x's binade.
func unit(x float64) float64 {
	return math.Nextafter(x, math.Inf(1)) - x
}

func check(t *testing.T, x float64, adds []float64, k uint64) {
	t.Helper()
	want, got := plainRepeat(x, adds, k), Repeat(x, adds, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Repeat(%v [%#x], %v, %d) = %v [%#x], want %v [%#x]",
			x, math.Float64bits(x), adds, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestRepeatMatchesLoopOnRandomCases draws sums of the simulator's kind
// (inexact decimal addends such as energies and penalties) and of any
// kind (random bit patterns, exact binary fractions) from every binade.
func TestRepeatMatchesLoopOnRandomCases(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	n := 3000
	if testing.Short() {
		n = 600
	}
	for range n {
		adds := make([]float64, r.IntN(9))
		for i := range adds {
			switch r.IntN(4) {
			case 0:
				adds[i] = float64(r.IntN(1000)) / 100
			case 1:
				adds[i] = 45 + float64(r.IntN(16))*2.4 + float64(r.IntN(4))*0.9
			case 2:
				adds[i] = math.Ldexp(float64(r.IntN(64)), -r.IntN(8))
			default:
				adds[i] = math.Ldexp(r.Float64(), r.IntN(80)-40)
			}
		}
		x := 0.0
		if r.IntN(8) > 0 {
			x = math.Ldexp(r.Float64(), r.IntN(80)-40)
		}
		check(t, x, adds, uint64(r.IntN(5000)))
	}
}

// TestRepeatConstructedCases covers the edges of the closed form: sums
// that start at zero or a few units below a power of two, addends that
// tie at x's unit or at the next binade's, addends far smaller or far
// larger than x, and the plain loop's own fallbacks.
func TestRepeatConstructedCases(t *testing.T) {
	pow := math.Ldexp(1, 20)
	u := unit(pow / 2) // the unit just below pow
	cases := []struct {
		name string
		x    float64
		adds []float64
		k    uint64
	}{
		{"zero", 0, []float64{0.1, 2.56}, 5000},
		{"just below a power of two", pow - 3*u, []float64{0.7 * u, 0.2}, 5000},
		{"exactly a power of two minus one unit", pow - u, []float64{u}, 100},
		{"tie at u", pow / 2, []float64{u / 2, 3.1}, 5000},
		{"odd ties at u", pow/2 + u, []float64{u / 2, u / 2}, 5000},
		{"tie at 2u", pow / 2, []float64{u, 1e-3}, 5000},
		{"tie at 2u, three of them", 3 * pow / 4, []float64{3 * u, u, 5 * u}, 5000},
		{"addends below half a unit", 1e10, []float64{1e-7, 3e-7}, 5000},
		{"an addend above x", 1, []float64{1e6, 0.1}, 5000},
		{"subnormal addend", math.SmallestNonzeroFloat64 * 4, []float64{math.SmallestNonzeroFloat64}, 5000},
		{"subnormal x", math.SmallestNonzeroFloat64 * 3, []float64{math.SmallestNonzeroFloat64 * 7}, 5000},
		{"negative x", -1e6, []float64{0.3, 2.56}, 5000},
		{"negative addend", 1e3, []float64{0.3, -0.1}, 5000},
		{"negative zero addend", 1e3, []float64{math.Copysign(0, -1), 0.3}, 5000},
		{"to infinity", math.MaxFloat64 / 2, []float64{math.MaxFloat64 / 7}, 100},
		{"infinite addend", 1, []float64{0.5, math.Inf(1)}, 100},
		{"NaN addend", 1, []float64{math.NaN()}, 100},
		{"short span", 1e3, []float64{0.1}, 3},
		{"many passes", 1, []float64{0.1, 2.56, 0.25}, 1 << 20},
		{"one addend, many passes", 45.3, []float64{46.8}, 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check(t, tc.x, tc.adds, tc.k)
		})
	}
}

// TestRepeatReturnsAtOnceWhenNothingMoves: a pass that leaves x unchanged
// leaves every later one unchanged, so even 2^64−1 passes of no addends,
// of zeros or of addends below half a unit return at once.
func TestRepeatReturnsAtOnceWhenNothingMoves(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		adds []float64
	}{
		{1.5, nil},
		{0, nil},
		{0, []float64{0, 0, 0}},
		{3.25, []float64{0, math.Copysign(0, -1)}},
		{1e10, []float64{1e-8, 1e-9}},
		{math.Inf(1), []float64{1}},
	} {
		if got := Repeat(tc.x, tc.adds, math.MaxUint64); math.Float64bits(got) != math.Float64bits(tc.x) {
			t.Errorf("Repeat(%v, %v, MaxUint64) = %v, want x unchanged", tc.x, tc.adds, got)
		}
	}
}

// FuzzRepeat compares Repeat with the plain loop, in float bits, on an x
// drawn across binades (zero, a few units below a power of two, any
// positive double, any bit pattern), up to 8 addends (among them exact
// ties at x's unit and at twice it) and up to 4096 passes.
func FuzzRepeat(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint16(100))
	f.Add(uint64(1)<<8|1, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(4096))
	f.Add(uint64(2)|uint64(0x4040)<<48, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0}, uint16(777))
	f.Add(uint64(0x40d2345678abcdef), []byte{4, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a}, uint16(4000))
	f.Fuzz(func(t *testing.T, xsel uint64, raw []byte, kraw uint16) {
		var x float64
		switch xsel & 3 {
		case 0:
			x = 0
		case 1: // a few units below a power of two
			p := math.Ldexp(1, int(xsel>>2&127)-64)
			x = p - float64(xsel>>9&15)*unit(p/2)
		case 2: // a positive double between 2^-511 and 2^513
			x = math.Ldexp(1+float64(xsel>>12)/(1<<52), int(xsel>>2&1023)-511)
		default: // any bit pattern
			x = math.Float64frombits(xsel)
		}
		u := unit(math.Abs(x))
		var adds []float64
		for len(raw) >= 9 && len(adds) < 8 {
			v := binary.BigEndian.Uint64(raw[1:9])
			var a float64
			switch raw[0] % 5 {
			case 0: // a tie at x's unit
				a = float64(2*(v%8)+1) * u / 2
			case 1: // a tie at twice x's unit
				a = float64(2*(v%8)+1) * u
			case 2: // a small multiple of a small power of two
				a = math.Ldexp(float64(v&0xffff), int(v>>16%32)-24)
			case 3: // any bit pattern
				a = math.Float64frombits(v)
			default: // a decimal fraction, inexact in binary
				a = float64(v%100000) / 1000
			}
			adds = append(adds, a)
			raw = raw[9:]
		}
		k := uint64(kraw) % 4097
		want, got := plainRepeat(x, adds, k), Repeat(x, adds, k)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Repeat(%v [%#x], %v, %d) = %#x, want %#x",
				x, math.Float64bits(x), adds, k, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
