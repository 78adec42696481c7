// Package fsum repeats a float64 running sum in closed form, with
// exactly the bits that adding one addend at a time gives.
//
// Inside one binade [2^e, 2^(e+1)) every double is a multiple of
// u = 2^(e−52). So for an addend a ≥ 0, x += a gives x + round(a/u)·u
// whatever x is, as long as the sum stays in the binade and a/u is not
// exactly halfway between two integers: a tie rounds to even, which
// depends on x. A pass over a list of addends therefore adds a fixed
// whole number of u while the sum stays in its binade, and all the
// passes that fit are added as one integer product. The pass that
// leaves the binade is added one addend at a time, and the next binade
// is priced again.
package fsum

import "math"

const (
	fracBits = 52
	fracMask = 1<<fracBits - 1
	// Pricing a pass costs about as much as a few plain ones, so a span
	// of fewer than minPasses passes or minAdds additions is added
	// plainly.
	minPasses = 8
	minAdds   = 64
)

// Repeat returns x after k passes of
//
//	for _, a := range adds {
//		x += a
//	}
//
// with exactly the bits that loop gives. It prices the passes in closed
// form while x is a positive normal double and every addend is
// non-negative and finite, and adds plainly where that cannot be exact
// or cannot pay: an x that is zero, subnormal or negative, an addend
// that ties at x's unit, a negative or non-finite addend, or a span of
// fewer than 8 passes or about 64 additions. A pass that leaves x
// unchanged leaves every later pass unchanged too, so Repeat returns at
// once, however large k, when nothing moves x.
func Repeat(x float64, adds []float64, k uint64) float64 {
	for k > 0 {
		if k < minPasses || (k < minAdds && k*uint64(len(adds)) < minAdds) {
			for range k {
				x = pass(x, adds)
			}
			return x
		}
		b := math.Float64bits(x)
		d, ok := price(b>>fracBits, adds)
		if !ok {
			// Add plainly until x leaves its binade, then price again.
			for ; k > 0 && math.Float64bits(x)>>fracBits == b>>fracBits; k-- {
				y := pass(x, adds)
				if math.Float64bits(y) == math.Float64bits(x) {
					return y
				}
				x = y
			}
			continue
		}
		if d == 0 {
			return x
		}
		n := min(k, (fracMask-b&fracMask)/d)
		x, k = math.Float64frombits(b+n*d), k-n
		if k > 0 {
			// This pass leaves the binade.
			x, k = pass(x, adds), k-1
		}
	}
	return x
}

// pass returns x after adding each addend in turn.
func pass(x float64, adds []float64) float64 {
	for _, a := range adds {
		x += a
	}
	return x
}

// price returns how many units u one pass adds while x stays in its
// binade, given x's sign and exponent bits top: the sum of round(a/u)
// over the addends, above fracMask when no whole pass fits. It reports
// false when a pass can only be added plainly: x is zero, subnormal,
// negative or not finite, or an addend is negative, not finite or a
// tie at u.
func price(top uint64, adds []float64) (uint64, bool) {
	if top == 0 || top >= 0x7FF {
		return 0, false
	}
	var d uint64
	for _, a := range adds {
		if !(a >= 0 && a <= math.MaxFloat64) {
			return 0, false
		}
		if a == 0 {
			continue
		}
		ab := math.Float64bits(a)
		ea, ma := ab>>fracBits, ab&fracMask
		if ea == 0 {
			ea = 1 // a subnormal has the lowest normal binade's unit
		} else {
			ma |= 1 << fracBits
		}
		// a = ma·2^(ea−1075) and u = 2^(top−1075), so a/u = ma·2^(ea−top).
		if ea >= top {
			return fracMask + 1, true // no whole pass fits
		}
		sh := top - ea
		if sh > fracBits+1 {
			continue // a < u/2
		}
		r, rem, half := ma>>sh, ma&(1<<sh-1), uint64(1)<<(sh-1)
		if rem == half {
			return 0, false
		}
		if rem > half {
			r++
		}
		if d += r; d > fracMask {
			return d, true
		}
	}
	return d, true
}
