package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/store"
)

// Metrics holds the daemon's operational counters and timing
// histograms. Counter fields are atomics updated lock-free on the hot
// path; histograms are obs.Histogram (also lock-free, and nil-safe, so
// a zero Metrics literal observes into the void instead of panicking).
// /metrics renders a point-in-time snapshot in Prometheus text
// exposition format, every family preceded by its # HELP and # TYPE
// lines.
type Metrics struct {
	Requests      atomic.Uint64 // HTTP requests accepted (all endpoints)
	CacheHits     atomic.Uint64 // results served from the cache: artifacts, channel runs, sweep rows, advisories
	CacheMisses   atomic.Uint64 // simulations run on a slot: artifacts and channel runs (an advisory's are its rows')
	Deduplicated  atomic.Uint64 // requests collapsed onto an in-flight run
	Rejected      atomic.Uint64 // requests refused with 429 (queue full)
	Timeouts      atomic.Uint64 // requests that gave up waiting (504)
	Errors        atomic.Uint64 // other 4xx/5xx responses
	Cancellations atomic.Uint64 // in-flight runs cancelled (abandoned or shutdown)
	Sweeps        atomic.Uint64 // POST /v1/sweeps requests accepted past validation
	ShardRequests atomic.Uint64 // POST /v1/shards requests accepted past validation
	Traces        atomic.Uint64 // traced requests (?trace=1) completed
	InFlight      atomic.Int64  // simulations (artifacts, channel runs) on a slot right now
	Queued        atomic.Int64  // jobs admitted and waiting or running

	// RequestSeconds observes wall-clock request latency across every
	// endpoint; RunSeconds the duration of each simulation executed on a
	// worker slot; QueueWaitSeconds the time a simulation waited for a
	// free slot. NewServer initializes them; they are nil (and Observe a
	// no-op) on a hand-built Metrics.
	RequestSeconds   *obs.Histogram
	RunSeconds       *obs.Histogram
	QueueWaitSeconds *obs.Histogram
}

// initHistograms allocates the timing histograms; called by NewServer
// so handler code can observe unconditionally.
func (m *Metrics) initHistograms() {
	m.RequestSeconds = obs.NewHistogram(nil)
	m.RunSeconds = obs.NewHistogram(nil)
	m.QueueWaitSeconds = obs.NewHistogram(nil)
}

// promFamily is one metric family of the /metrics exposition: name,
// HELP text, TYPE, and a sample renderer.
type promFamily struct {
	name   string
	help   string
	typ    string
	render func(b *strings.Builder, name string)
}

// counterRow renders a single-sample counter or gauge family.
func counterRow(v int64) func(*strings.Builder, string) {
	return func(b *strings.Builder, name string) {
		fmt.Fprintf(b, "%s %d\n", name, v)
	}
}

// Render writes the counters and histograms in Prometheus text format,
// families sorted by name, each with # HELP and # TYPE lines. cacheLen
// is the current number of cached results (owned by the cache, not an
// atomic here); queueCap is the configured job-queue bound, exported so
// operators can alert on leakyfed_queue_depth / leakyfed_queue_capacity
// saturation. st and fl are snapshots of the persistent store's and
// fleet coordinator's own counters (both types report zeros for their
// nil owners, so the families render unconditionally and scrapes stay
// schema-stable whether or not -cache-dir / -fleet are configured).
func (m *Metrics) Render(cacheLen, queueCap int, st store.Stats, fl fleet.Stats) string {
	families := []promFamily{
		{"leakyfed_requests_total", "HTTP requests accepted, all endpoints.", "counter", counterRow(int64(m.Requests.Load()))},
		{"leakyfed_cache_hits_total", "Results served from the deterministic result cache.", "counter", counterRow(int64(m.CacheHits.Load()))},
		{"leakyfed_cache_misses_total", "Results that required running a simulation.", "counter", counterRow(int64(m.CacheMisses.Load()))},
		{"leakyfed_deduplicated_total", "Requests collapsed onto another caller's in-flight run.", "counter", counterRow(int64(m.Deduplicated.Load()))},
		{"leakyfed_rejected_total", "Requests refused with 429 because the job queue was full.", "counter", counterRow(int64(m.Rejected.Load()))},
		{"leakyfed_timeouts_total", "Requests that gave up waiting for a result (504).", "counter", counterRow(int64(m.Timeouts.Load()))},
		{"leakyfed_errors_total", "Other 4xx/5xx responses.", "counter", counterRow(int64(m.Errors.Load()))},
		{"leakyfed_cancellations_total", "In-flight runs cancelled by abandonment or shutdown.", "counter", counterRow(int64(m.Cancellations.Load()))},
		{"leakyfed_sweeps_total", "POST /v1/sweeps requests accepted past validation.", "counter", counterRow(int64(m.Sweeps.Load()))},
		{"leakyfed_traces_total", "Traced requests (?trace=1) completed and retained.", "counter", counterRow(int64(m.Traces.Load()))},
		{"leakyfed_inflight_runs", "Simulations executing on a worker slot right now.", "gauge", counterRow(m.InFlight.Load())},
		{"leakyfed_queue_depth", "Jobs admitted and waiting or running.", "gauge", counterRow(m.Queued.Load())},
		{"leakyfed_queue_capacity", "Configured job-queue bound.", "gauge", counterRow(int64(queueCap))},
		{"leakyfed_cached_results", "Results currently held by the LRU cache.", "gauge", counterRow(int64(cacheLen))},
		{"leakyfed_shards_total", "POST /v1/shards requests accepted past validation.", "counter", counterRow(int64(m.ShardRequests.Load()))},
		{"leakyfed_store_hits_total", "Results served from the persistent on-disk store.", "counter", counterRow(int64(st.Hits))},
		{"leakyfed_store_misses_total", "Store probes that found no (usable) entry.", "counter", counterRow(int64(st.Misses))},
		{"leakyfed_store_puts_total", "Results persisted into the on-disk store.", "counter", counterRow(int64(st.Puts))},
		{"leakyfed_store_put_errors_total", "Store writes that failed (persistence degraded, serving unaffected).", "counter", counterRow(int64(st.PutErrors))},
		{"leakyfed_store_quarantined_total", "Corrupt or alien store entries moved to quarantine.", "counter", counterRow(int64(st.Quarantined))},
		{"leakyfed_store_bytes", "Bytes currently held by the on-disk store.", "gauge", counterRow(st.Bytes)},
		{"leakyfed_fleet_scatters_total", "Sweep shards scattered to fleet workers.", "counter", counterRow(int64(fl.Scatters))},
		{"leakyfed_fleet_merged_rows_total", "Worker rows merged into sweep reports.", "counter", counterRow(int64(fl.MergedRows))},
		{"leakyfed_fleet_worker_failures_total", "Fleet workers marked dead after a scatter failure.", "counter", counterRow(int64(fl.WorkerFailures))},
		{"leakyfed_fleet_rehashes_total", "Scatter rounds re-hashed over surviving workers.", "counter", counterRow(int64(fl.Rehashes))},
		{"leakyfed_fleet_workers", "Configured fleet size (0 when not a coordinator).", "gauge", counterRow(int64(fl.Workers))},
		{"leakyfed_fleet_live_workers", "Fleet workers not marked dead.", "gauge", counterRow(int64(fl.LiveWorkers))},
		{"leakyfed_request_seconds", "Wall-clock HTTP request latency.", "histogram", m.RequestSeconds.RenderProm},
		{"leakyfed_run_seconds", "Duration of each simulation executed on a worker slot.", "histogram", m.RunSeconds.RenderProm},
		{"leakyfed_queue_wait_seconds", "Time a simulation waited for a free worker slot.", "histogram", m.QueueWaitSeconds.RenderProm},
	}
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.render(&b, f.name)
	}
	return b.String()
}
