package leakfuzz

import "testing"

// BenchmarkLeakfuzzCampaign times the fixed CI campaign (seed 1, budget
// 2000) end to end: mutation, evaluation, coverage bookkeeping and
// minimization. Its allocations are deterministic, so the benchmark gate
// catches an evaluation that goes back to building fresh cores.
func BenchmarkLeakfuzzCampaign(b *testing.B) {
	b.ReportAllocs()
	execs := 0
	for i := 0; i < b.N; i++ {
		execs += Run(Options{Seed: ciSeed, Budget: ciBudget}).Executions
	}
	b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
}
