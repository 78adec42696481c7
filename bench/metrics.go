package main

import (
	"math"
	"sort"

	"repro/internal/experiments"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names and units; bench_test.go holds the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator pays, reported by
// every untraced run of every workload: the CPU time of set-up and of
// the workload's fixed work, both scaled to the nominal host speed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"norm_cpu_s", "s"},
}

// families are the attack-channel families the ledger times per bit.
var families = []string{"nonmt", "nonmt_stealthy", "mt", "power", "slowswitch", "sgx_nonmt", "sgx_mt"}

// mechanisms are the leakfuzz families whose discovery point is counted.
var mechanisms = []string{"eviction", "misalignment", "slowswitch", "bpu"}

// perLayer lists the traced-run metrics in three groups. The ledger
// times fixed inputs against each layer and reads the same on every
// workload; the shares split one workload's traced repetition by layer
// (0 on workloads that never enter the layer); the counts are
// deterministic work units that repeat exactly for a given seed.
func perLayer() []metricDef {
	defs := []metricDef{
		{"wall_s", "s"},
		{"cpu_s", "s"},
		{"peak_rss_mb", "MB"},
		{"cpu.step_ns", "ns"},
		{"cpu.newcore_us", "us"},
		{"frontend.deliver_ns.dsb", "ns"},
		{"frontend.deliver_ns.mite", "ns"},
		{"frontend.deliver_ns.lsd", "ns"},
		{"sweep.expand_us", "us"},
		{"spec.build_us", "us"},
		{"channel.calibrate_us", "us"},
	}
	for _, f := range families {
		defs = append(defs, metricDef{"attack.sendbit_us." + f, "us"})
	}
	defs = append(defs,
		metricDef{"cpu.ns_per_sim_cycle", "ns"},
		metricDef{"contract.newexecutor_us", "us"},
		metricDef{"contract.exec_us", "us"},
		metricDef{"fingerprint.trace_ms", "ms"},
		metricDef{"store.put_us", "us"},
		metricDef{"store.get_us", "us"},
		metricDef{"serve.cold_ms", "ms"},
		metricDef{"serve.hit_us", "us"},
	)
	for _, a := range experiments.Default().Artifacts() {
		defs = append(defs, metricDef{"experiments." + a.Name + ".share", "ratio"})
	}
	defs = append(defs,
		metricDef{"spec.build.share", "ratio"},
		metricDef{"channel.calibrate.share", "ratio"},
		metricDef{"channel.transmit.share", "ratio"},
		metricDef{"sweep.sgx_mt.share", "ratio"},
		metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.nonsim.share", "ratio"},
		metricDef{"leakfuzz.overhead.share", "ratio"},
		metricDef{"obs.trace_overhead_frac", "ratio"},
		metricDef{"sweep.specs", "count"},
		metricDef{"sweep.memo_entries", "count"},
		metricDef{"cpu.sim_cycles", "count"},
		metricDef{"leakfuzz.execs", "count"},
		metricDef{"leakfuzz.corpus", "count"},
		metricDef{"leakfuzz.features", "count"},
		metricDef{"leakfuzz.findings", "count"},
		metricDef{"leakfuzz.unclassified", "count"},
	)
	for _, m := range mechanisms {
		defs = append(defs, metricDef{"leakfuzz.first_exec." + m, "count"})
	}
	return append(defs,
		metricDef{"serve.cache_hits", "count"},
		metricDef{"serve.cache_misses", "count"},
		metricDef{"serve.dedup", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"store.puts", "count"},
		metricDef{"store.hits", "count"},
		metricDef{"store.bytes", "bytes"},
	)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
