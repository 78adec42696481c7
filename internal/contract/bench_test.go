package contract

import "testing"

// BenchmarkExecutorObserve times one fuzzer-style evaluation of an arm
// on a reused executor: Reset, a prep phase of lone-thread stalls (a mix
// loop, a pause pad and a 1-byte nop walk), then an LCP probe.
// sim-cycles/op is the simulated work, which a faster window loop leaves
// unchanged.
func BenchmarkExecutorObserve(b *testing.B) {
	e := NewExecutor(model(), 1)
	prep, probe := stallPrep(), lcpProbe()
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Observe(prep)
		e.Observe(probe)
		cycles += e.Core().Cycle()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}
