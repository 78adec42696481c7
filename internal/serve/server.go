// Package serve is the daemon layer behind leakyfed: an HTTP server in
// front of the experiment registry, the ChannelSpec scenario space and
// the Section XII advisories. Every result it serves — a paper artifact,
// a channel run, a sweep or shard row, an advisory — is a pure function
// of a canonical cache key. Each is looked up in the layered cache (the
// LRU, then the optional disk store); a miss goes through one compute
// path, resolve: a flight group that collapses concurrent requests for
// the same key into one computation, a re-probe inside the flight,
// admission against the bounded job queue (429 when full), and the
// computation itself, written through to both tiers. Simulations run on
// one of Workers slots through one slot runner, onSlot. A cache hit
// never touches the simulator, and responses are byte-identical for
// every spelling of the same request.
//
// Simulations run under cooperative cancellation contexts: every run is
// cancelled on server shutdown (Close), and — with CancelAbandoned — an
// uncached run whose last HTTP waiter disconnects is cancelled at its
// next checkpoint, freeing the simulation slot immediately instead of
// finishing a result nobody will read. By default an abandoned run
// keeps flying and warms the cache, the behavior timed-out requests
// have always relied on.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/store"
)

// Errors the serving layer maps to HTTP statuses.
var (
	// ErrNotFound reports an artifact name absent from the registry (404).
	ErrNotFound = errors.New("serve: unknown artifact")
	// ErrBusy reports the job queue is full; retry later (429).
	ErrBusy = errors.New("serve: job queue full")
)

// Config parameterizes a Server. The zero value serves the default
// registry with default options and sensible bounds.
type Config struct {
	// Registry is the artifact catalog; nil means experiments.Default().
	Registry *experiments.Registry
	// Opts is the base experiment scale. Per-request query parameters
	// (?seed=, ?bits=, ?samples=) override individual fields; the result
	// is normalized before keying the cache.
	Opts experiments.Opts
	// Workers bounds how many artifact simulations run concurrently
	// across all requests; <= 0 means 4.
	Workers int
	// QueueDepth bounds admitted jobs, where one job is one request's
	// simulation work: a single-artifact request and a whole /v1/run
	// stream each count as one (a stream's internal parallelism is
	// already bounded by Workers). A request arriving with every slot
	// taken is rejected with 429. <= 0 means 4x Workers.
	QueueDepth int
	// CacheSize bounds the number of cached results (LRU eviction);
	// <= 0 means 1024.
	CacheSize int
	// Timeout bounds how long a single-artifact request waits for its
	// result. A timed-out request gets 504; unless CancelAbandoned
	// cancels it, the simulation keeps running and still populates the
	// cache. <= 0 means 2 minutes.
	Timeout time.Duration
	// CancelAbandoned cancels an uncached simulation once its last HTTP
	// waiter has disconnected (or timed out), freeing the worker slot at
	// the run's next cooperative checkpoint. The default false keeps the
	// historical behavior: abandoned runs finish and warm the cache.
	// Server shutdown (Close) always cancels in-flight runs regardless.
	CancelAbandoned bool
	// HealthPoll is the observation interval for /healthz degradation:
	// the probe reports 503 once the job queue has been continuously
	// full for longer than one interval. <= 0 means 5 seconds.
	HealthPoll time.Duration
	// Logger receives one structured line per request (level WARN for
	// 4xx/5xx responses, INFO otherwise), carrying method, path, status,
	// and the request id. nil discards logs.
	Logger *slog.Logger
	// TraceBuffer bounds how many completed request traces (?trace=1)
	// GET /v1/traces retains, oldest evicted first. <= 0 means 32.
	TraceBuffer int
	// Store is the disk-backed result store layered beneath the LRU:
	// reads fall through LRU → store → simulator, and every simulated
	// result is written through to both, so a restarted daemon serves
	// byte-identical responses without re-simulating. nil means no
	// persistence (the historical in-memory-only behavior).
	Store *store.Store
	// Fleet, when non-nil, makes this daemon a sweep coordinator:
	// POST /v1/sweeps consistent-hashes the shard's spec cache keys
	// across the fleet's workers and merges their rows instead of
	// simulating locally. Single-artifact and single-channel endpoints
	// still run locally.
	Fleet *fleet.Coordinator
}

// Server serves registry artifacts over HTTP with caching, request
// deduplication, and admission control. Create one with NewServer and
// mount Handler on an http.Server; call Close on shutdown to cancel
// in-flight simulations.
type Server struct {
	reg             *experiments.Registry
	opts            experiments.Opts
	workers         int
	depth           int64
	timeout         time.Duration
	cancelAbandoned bool
	healthPoll      time.Duration

	// lifecycle is the root of every simulation context; Close cancels
	// it, so no run outlives the daemon.
	lifecycle context.Context
	close     context.CancelFunc

	cache   *resultCache
	store   *store.Store       // optional persistent tier; nil-safe
	fleet   *fleet.Coordinator // optional sweep scatter/merge; nil means local sweeps
	flights *flightGroup
	sem     chan struct{} // simulation slots; acquired only while running
	metrics Metrics

	logger *slog.Logger
	traces *obs.Ring     // completed ?trace=1 traces, for GET /v1/traces
	reqSeq atomic.Uint64 // request-id counter; ids are req-<n>

	// queueFull is the unix-nano timestamp since which the job queue has
	// been continuously full (0 while below capacity); /healthz reports
	// degraded once an episode outlasts one healthPoll interval.
	queueFull atomic.Int64
}

// NewServer builds a Server from cfg, applying defaults for unset
// fields.
func NewServer(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = experiments.Default()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	size := cfg.CacheSize
	if size <= 0 {
		size = 1024
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	healthPoll := cfg.HealthPoll
	if healthPoll <= 0 {
		healthPoll = 5 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	lifecycle, cancel := context.WithCancel(context.Background())
	s := &Server{
		reg:             reg,
		opts:            cfg.Opts.Normalize(),
		workers:         workers,
		depth:           int64(depth),
		timeout:         timeout,
		cancelAbandoned: cfg.CancelAbandoned,
		healthPoll:      healthPoll,
		lifecycle:       lifecycle,
		close:           cancel,
		cache:           newResultCache(size),
		store:           cfg.Store,
		fleet:           cfg.Fleet,
		flights:         newFlightGroup(lifecycle, cfg.CancelAbandoned),
		sem:             make(chan struct{}, workers),
		logger:          logger,
		traces:          obs.NewRing(cfg.TraceBuffer),
	}
	s.metrics.initHistograms()
	return s
}

// Close cancels every in-flight and not-yet-started simulation; each
// unwinds at its next cooperative checkpoint and its waiters see
// context.Canceled. Cached results remain servable. Call it when
// shutting the daemon down, before or alongside http.Server.Shutdown,
// so draining is not stuck behind simulations nobody will wait for.
func (s *Server) Close() { s.close() }

// Metrics returns the server's live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Store returns the persistent result store, or nil when the server
// runs in-memory only.
func (s *Server) Store() *store.Store { return s.store }

// cacheGet is the layered read path every probe goes through: the LRU
// first, then the persistent store (a store hit is promoted into the
// LRU, so one disk read serves all later requests from memory). Both
// tiers hold results under the same canonical keys, and both count —
// the caller attributes the serve to CacheHits, the store attributes
// the disk hit/miss to its own counters.
func (s *Server) cacheGet(ctx context.Context, key string) (experiments.Result, bool) {
	if res, hit := s.cache.Get(key); hit {
		return res, true
	}
	if s.store == nil {
		return experiments.Result{}, false
	}
	res, hit := s.store.Get(ctx, key)
	if hit {
		s.cache.Add(key, res)
	}
	return res, hit
}

// cacheAdd is the write-through path: every simulated result lands in
// the LRU and (when configured) the store, so the next process serves
// it without simulating. Store write failures degrade silently — they
// are counted in store_put_errors_total, and persistence is an
// optimization, never a correctness dependency.
func (s *Server) cacheAdd(ctx context.Context, key string, res experiments.Result) {
	s.cache.Add(key, res)
	s.store.Put(ctx, key, res)
}

// Artifact returns the result of running the named artifact with the
// given options (normalized first), preferring the cache and collapsing
// concurrent identical requests into one simulation. The returned
// Result has Elapsed zeroed so the bytes are a pure function of
// (name, Opts); wall-clock cost is an operational concern, visible in
// /metrics, not part of the artifact.
//
// ctx is this caller's willingness to wait: when it expires the caller
// gets its error, and the underlying run either keeps flying (default)
// or is cancelled once no waiter remains (CancelAbandoned).
func (s *Server) Artifact(ctx context.Context, name string, o experiments.Opts) (experiments.Result, error) {
	a, ok := s.reg.Get(name)
	if !ok {
		return experiments.Result{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	o = o.Normalize()
	key := o.CacheKey(a.Name)
	if res, hit := s.cached(ctx, key); hit {
		return res, nil
	}
	return s.resolve(ctx, key, true, s.artifactRun(a, o, nil), obs.String("artifact", a.Name))
}

// cached probes the layered cache and counts a hit as a served result.
func (s *Server) cached(ctx context.Context, key string) (experiments.Result, bool) {
	res, hit := s.cacheGet(ctx, key)
	if hit {
		s.metrics.CacheHits.Add(1)
	}
	return res, hit
}

// computeFunc computes the result for a key no cache holds. It runs
// under the flight's context, which derives from the server lifecycle.
type computeFunc func(context.Context) (experiments.Result, error)

// resolve is the one compute path behind every endpoint: it returns the
// result for key, collapsing concurrent callers into one flight. The
// flight's leader re-probes the cache (a racing flight may have landed
// since the caller's own probe), claims a job-queue slot when admitJob
// is set, runs compute, and writes the result through to the LRU and
// the store. Single-result requests admit here, one job per request;
// streams admit once for the whole stream and pass admitJob false.
// attrs label the "compute" span.
func (s *Server) resolve(ctx context.Context, key string, admitJob bool, compute computeFunc, attrs ...obs.Attr) (experiments.Result, error) {
	ctx, span := obs.Start(ctx, "compute", append(attrs, obs.String("cachekey", key))...)
	defer span.End()
	res, shared, err := s.flights.Do(ctx, key, func(fctx context.Context) (experiments.Result, error) {
		// The flight context derives from the server lifecycle, not this
		// caller, so the leader re-attaches its own trace; joiners see a
		// dedup span below.
		if sp := obs.SpanFrom(ctx); sp != nil {
			fctx = obs.ContextWithSpan(fctx, sp)
		}
		// A racing flight may have landed between the caller's probe and
		// taking the lead; its result is cached, and this is a hit.
		if res, hit := s.cached(fctx, key); hit {
			span.SetAttr("cache", "hit")
			return res, nil
		}
		if admitJob {
			if !s.admit() {
				return experiments.Result{}, ErrBusy
			}
			defer s.release()
		}
		res, err := compute(fctx)
		if err != nil {
			return experiments.Result{}, err
		}
		s.cacheAdd(fctx, key, res)
		return res, nil
	})
	if shared && err == nil {
		// Count only collapses that actually served a result; a waiter
		// that timed out is a Timeout, not saved work.
		s.metrics.Deduplicated.Add(1)
		span.SetAttr("cache", "dedup")
	}
	return res, err
}

// admit reserves a job-queue slot, or reports the queue is full. The
// caller owns releasing it when its job finishes. Queue-full episodes
// are timestamped for the /healthz degradation probe.
func (s *Server) admit() bool {
	q := s.metrics.Queued.Add(1)
	if q > s.depth {
		s.metrics.Queued.Add(-1)
		s.queueFull.CompareAndSwap(0, time.Now().UnixNano())
		return false
	}
	if q == s.depth {
		s.queueFull.CompareAndSwap(0, time.Now().UnixNano())
	}
	return true
}

// release returns a job-queue slot and, once the queue is below
// capacity again, ends the current queue-full episode.
func (s *Server) release() {
	if s.metrics.Queued.Add(-1) < s.depth {
		s.queueFull.Store(0)
	}
}

// onSlot wraps a simulation as a computeFunc that runs on one of the
// Workers simulation slots; label names it in the "queue.wait" and
// "run" spans. Every simulation counts as a cache miss once it holds
// its slot. A run cancelled while waiting or running returns an error
// (and resolve caches nothing).
func (s *Server) onSlot(label obs.Attr, run computeFunc) computeFunc {
	return func(ctx context.Context) (experiments.Result, error) {
		wctx, qspan := obs.Start(ctx, "queue.wait", label)
		waitStart := time.Now()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			// Cancelled while waiting for a slot: never started.
			qspan.End()
			s.metrics.QueueWaitSeconds.Observe(time.Since(waitStart).Seconds())
			s.metrics.Cancellations.Add(1)
			return experiments.Result{}, ctx.Err()
		}
		qspan.End()
		s.metrics.QueueWaitSeconds.Observe(time.Since(waitStart).Seconds())
		s.metrics.InFlight.Add(1)
		runStart := time.Now()
		defer func() {
			s.metrics.RunSeconds.Observe(time.Since(runStart).Seconds())
			s.metrics.InFlight.Add(-1)
			<-s.sem
		}()
		s.metrics.CacheMisses.Add(1)
		rctx, rspan := obs.Start(wctx, "run", label, obs.String("cache", "miss"))
		defer rspan.End()
		res, err := run(rctx)
		if err != nil {
			s.metrics.Cancellations.Add(1)
		}
		return res, err
	}
}

// artifactRun is the artifact body: one artifact on a slot, through the
// Runner, so the per-artifact seed split (and hence every byte of the
// result) matches a direct Runner.Run of the same selection. sink, when
// non-nil, receives the run's progress ticks (only the flight leader's
// sink is wired; joiners share the result, not the progress).
func (s *Server) artifactRun(a experiments.Artifact, o experiments.Opts, sink runctx.Sink) computeFunc {
	return s.onSlot(obs.String("artifact", a.Name), func(ctx context.Context) (experiments.Result, error) {
		res := experiments.Runner{Opts: o, Workers: 1}.RunEmitCtx(runctx.New(ctx, sink), []experiments.Artifact{a}, nil)[0]
		if res.Err != "" {
			if err := ctx.Err(); err != nil {
				return experiments.Result{}, err
			}
			return experiments.Result{}, errors.New(res.Err)
		}
		res.Elapsed = 0 // determinism: responses depend only on (name, Opts)
		return res, nil
	})
}
