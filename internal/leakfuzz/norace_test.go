//go:build !race

package leakfuzz

// raceEnabled reports a -race build, whose instrumentation slows the
// simulator about tenfold.
const raceEnabled = false
