// Command leakyfed is the artifact-serving daemon: it serves every
// table and figure of the paper's evaluation over HTTP, with a
// deterministic result cache (runs are pure functions of artifact name
// and options, so results are cached forever), singleflight collapsing
// of concurrent identical requests, and a bounded job queue that pushes
// back with 429 under overload.
//
// Usage:
//
//	leakyfed -addr :8080 -workers 4 -cache-size 1024 -default-seed 1
//	leakyfed -cancel-abandoned   # free slots when the last waiter leaves
//	leakyfed -pprof localhost:6060 -log-format json
//	leakyfed -cache-dir /var/lib/leakyfed          # persist results across restarts
//	leakyfed -cache-dir d -precompute -filter 'mech=eviction' -maxp 2000
//	leakyfed -fleet http://w1:8080,http://w2:8080  # sweep coordinator over workers
//
// With -cache-dir every result also persists to disk (one file per
// canonical cache key, atomic writes, corrupt files quarantined), so a
// restarted daemon serves byte-identical responses with zero
// simulations. -precompute materializes the -filter shard of the
// scenario space into the store and exits instead of serving. -fleet
// turns the daemon into a sweep coordinator: POST /v1/sweeps
// consistent-hashes the shard's specs across the worker URLs, merges
// their rows, and degrades gracefully when workers die.
//
// Simulations are cancellable: shutdown (SIGINT/SIGTERM) cancels every
// in-flight run at its next cooperative checkpoint before draining
// connections, and with -cancel-abandoned an uncached run is also
// cancelled as soon as its last HTTP waiter disconnects, instead of
// finishing to warm the cache.
//
// Endpoints:
//
//	GET /v1/artifacts                 catalog
//	GET /v1/artifacts/{name}          one result (?format=json|text, ?seed=, ?bits=, ?samples=)
//	GET /v1/run?sel=table*            NDJSON stream in catalog order (?progress=1 interleaves progress events)
//	GET /v1/channels                  the valid covert-channel scenario space (?filter= narrows
//	                                  with the sweep grammar; ?model= remains as an alias)
//	POST /v1/channels/run             run one declared scenario: {"spec": {...}, "opts": {...}};
//	                                  invalid specs fail 400 before consuming a slot, results
//	                                  cache forever under the spec's canonical key
//	POST /v1/sweeps                   run a whole shard of the space: {"filter": "...", "opts":
//	                                  {...}, "calib": n, "maxp": n}; NDJSON per-spec rows in
//	                                  canonical order plus a final {"report": ...} aggregate,
//	                                  cache-shared and singleflight-deduped with /v1/channels/run
//	GET /v1/traces                    retained ?trace=1 request traces; /v1/traces/{id}
//	                                  serves one (?format=json|ndjson|chrome)
//	GET /healthz                      liveness; 503 when the job queue stays full
//	GET /metrics                      Prometheus text counters and latency histograms
//
// Observability: every request gets an X-Request-Id and one structured
// log line (-log-format text|json; WARN for 4xx/5xx); ?trace=1 on
// /v1/run and /v1/sweeps interleaves span lines into the NDJSON stream
// and retains the trace for /v1/traces/{id}; -pprof exposes
// net/http/pprof on a separate listener so profiling endpoints never
// share the public address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", runtime.NumCPU(), "max artifact simulations in flight")
		queue     = flag.Int("queue", 0, "max admitted jobs (waiting+running); 0 means 4x workers")
		cacheSize = flag.Int("cache-size", 1024, "max cached results (LRU eviction)")
		seed      = flag.Uint64("default-seed", 1, "seed used when a request does not pass ?seed=")
		bits      = flag.Int("default-bits", 200, "bits used when a request does not pass ?bits=")
		samples   = flag.Int("default-samples", 100, "samples used when a request does not pass ?samples=")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request wait bound (timed-out runs still warm the cache unless -cancel-abandoned)")
		cancelAb  = flag.Bool("cancel-abandoned", false, "cancel an uncached run once its last HTTP waiter disconnects, freeing its worker slot immediately")
		logFormat = flag.String("log-format", "text", "request log format on stderr: text|json")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables profiling")
		traceBuf  = flag.Int("trace-buffer", 32, "how many completed ?trace=1 request traces GET /v1/traces retains")
		cacheDir  = flag.String("cache-dir", "", "persist results to this directory (read-through/write-through under the LRU); empty disables persistence")
		fleetURLs = flag.String("fleet", "", "comma-separated worker base URLs (http://host:port); makes this daemon a sweep coordinator that scatters POST /v1/sweeps across them")
		precomp   = flag.Bool("precompute", false, "materialize the -filter shard of the scenario space into -cache-dir, then exit instead of serving")
		pcFilter  = flag.String("filter", "", "sweep filter for -precompute (empty = the whole valid space)")
		pcCalib   = flag.Int("calib", 0, "calibration-preamble override for -precompute (0 = per-spec default)")
		pcMaxP    = flag.Int("maxp", 0, "clamp every spec's p parameter for -precompute (0 = spec defaults)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "leakyfed: bad -log-format %q: want text|json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "leakyfed: %v\n", err)
			os.Exit(2)
		}
	}
	var coord *fleet.Coordinator
	if *fleetURLs != "" {
		var err error
		if coord, err = fleet.New(strings.Split(*fleetURLs, ","), nil); err != nil {
			fmt.Fprintf(os.Stderr, "leakyfed: %v\n", err)
			os.Exit(2)
		}
	}

	srv := serve.NewServer(serve.Config{
		Opts:            experiments.Opts{Bits: *bits, Seed: *seed, Samples: *samples},
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		Timeout:         *timeout,
		CancelAbandoned: *cancelAb,
		Logger:          logger,
		TraceBuffer:     *traceBuf,
		Store:           st,
		Fleet:           coord,
	})

	if *precomp {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		report, err := srv.Precompute(ctx, *pcFilter, *pcCalib, *pcMaxP)
		srv.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakyfed: precompute: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("leakyfed: precomputed %d of %d specs into %s\n",
			report.Completed, report.Specs, *cacheDir)
		if report.Completed < report.Specs {
			os.Exit(1)
		}
		return
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-header and idle connections must not pin goroutines/fds
		// forever on a public-facing daemon; response writes stay
		// unbounded because /v1/run streams for as long as it simulates.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Profiling listens on its own mux and address: pprof endpoints are
	// operator-only and must never ride the public API listener.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		defer ps.Close()
		go func() {
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener failed", slog.String("addr", *pprofAddr), slog.String("err", err.Error()))
			}
		}()
		fmt.Printf("leakyfed pprof on %s\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("leakyfed listening on %s (%d workers, cache %d)\n", *addr, *workers, *cacheSize)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "leakyfed: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Cancel in-flight simulations first so draining is not stuck
	// behind runs nobody will be around to read, then drain connections.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "leakyfed: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("leakyfed: drained, bye")
}
