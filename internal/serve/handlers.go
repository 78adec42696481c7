package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Handler returns the daemon's HTTP API:
//
//	GET /v1/artifacts                 catalog (name, ref, desc) as JSON
//	GET /v1/artifacts/{name}          one result; ?format=json|text,
//	                                  ?seed=, ?bits=, ?samples= override
//	                                  the server's base options
//	GET /v1/run?sel=table*            NDJSON result stream in catalog
//	                                  order; sel repeats or comma-lists
//	                                  patterns, default "all";
//	                                  ?progress=1 interleaves progress
//	                                  events between result lines
//	GET /v1/channels                  the valid covert-channel scenario
//	                                  space (canonical spec strings plus
//	                                  structured specs); ?filter= narrows
//	                                  with the sweep query grammar,
//	                                  ?model= remains as a model-only
//	                                  alias
//	POST /v1/channels/run             run one scenario: body is
//	                                  {"spec": {...}, "opts": {...}};
//	                                  invalid specs fail 400 up front,
//	                                  results cache under the spec key
//	POST /v1/sweeps                   run a whole shard of the space:
//	                                  body is {"filter": "...", "opts":
//	                                  {...}, "calib": n, "maxp": n};
//	                                  NDJSON rows in canonical order
//	                                  plus a final {"report": ...} line;
//	                                  on a fleet coordinator the rows
//	                                  are scattered across the workers
//	POST /v1/shards                   fleet-internal: run an explicit
//	                                  list of expanded specs; body is
//	                                  {"bits": n, "specs": [{"index":
//	                                  i, "spec": {...}}]}, response an
//	                                  NDJSON stream of indexed rows
//	GET /v1/advisories/{model}        defense ablation rendered as a
//	                                  security advisory for the model;
//	                                  ?format=json|text, ?seed=, ?bits=,
//	                                  ?calib=, ?maxp= scale the
//	                                  underlying defense-spanning sweep
//	GET /v1/traces                    index of retained request traces
//	                                  (?trace=1 runs), newest first
//	GET /v1/traces/{id}               one retained trace;
//	                                  ?format=json|ndjson|chrome — chrome
//	                                  is trace_event JSON loadable in
//	                                  about:tracing / Perfetto
//	GET /healthz                      liveness probe (503 once the job
//	                                  queue has been full for more than
//	                                  one poll interval)
//	GET /metrics                      Prometheus text counters and
//	                                  latency histograms
//
// Every request passes through one middleware that assigns a request id
// (echoed as X-Request-Id and used as the trace id under ?trace=1),
// observes wall-clock latency into leakyfed_request_seconds, and logs
// one structured line — level WARN with the response status for
// 4xx/5xx, INFO otherwise.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/artifacts", s.handleCatalog)
	mux.HandleFunc("GET /v1/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/channels", s.handleChannels)
	mux.HandleFunc("POST /v1/channels/run", s.handleChannelRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("POST /v1/shards", s.handleShards)
	mux.HandleFunc("GET /v1/advisories/{model}", s.handleAdvisory)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		id := fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		w.Header().Set("X-Request-Id", id)
		rec := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		s.metrics.RequestSeconds.Observe(elapsed.Seconds())
		code := rec.code
		if code == 0 {
			code = http.StatusOK
		}
		lvl, msg := slog.LevelInfo, "request"
		if code >= 400 {
			lvl, msg = slog.LevelWarn, "request failed"
		}
		s.logger.LogAttrs(r.Context(), lvl, msg,
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Duration("elapsed", elapsed))
	})
}

// requestIDKey carries the middleware-assigned request id through the
// request context, into log lines and trace ids.
type requestIDKey struct{}

// requestIDFrom returns the request id, or "" outside the middleware
// (direct Server method calls).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter records the response status for the request log line. It
// forwards Flush so streaming handlers behind the middleware still see
// an http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// catalogEntry is one /v1/artifacts row.
type catalogEntry struct {
	Name string `json:"name"`
	Ref  string `json:"ref"`
	Desc string `json:"desc"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	arts := s.reg.Artifacts()
	entries := make([]catalogEntry, len(arts))
	for i, a := range arts {
		entries[i] = catalogEntry{Name: a.Name, Ref: a.Ref, Desc: a.Desc}
	}
	s.writeJSON(w, entries)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	o, err := s.requestOpts(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	text, err := textFormat(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.respond(w, r, text, func(ctx context.Context) (experiments.Result, error) {
		return s.Artifact(ctx, r.PathValue("name"), o)
	})
}

// textFormat parses ?format=json|text (default json), reporting whether
// the rendered text was asked for.
func textFormat(r *http.Request) (bool, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		return false, nil
	case "text":
		return true, nil
	default:
		return false, fmt.Errorf("unknown format %q (json|text)", format)
	}
}

// respond is the tail every single-result endpoint shares: it computes
// the result under the request timeout and writes it as JSON, or as its
// rendered text when text is set, mapping errors to statuses.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, text bool, compute computeFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	res, err := compute(ctx)
	switch {
	case errors.Is(err, context.Canceled) && r.Context().Err() == nil:
		// The run was cancelled server-side (shutdown), not by this
		// client going away: tell the still-connected caller.
		s.fail(w, http.StatusServiceUnavailable, errors.New("run cancelled (server shutting down)"))
	case err != nil:
		s.failErr(w, err)
	case text:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.Rendered)
	default:
		s.writeJSON(w, res)
	}
}

// progressLine is the NDJSON envelope for one progress event; result
// lines are bare experiments.Result objects (no envelope), so a stream
// without ?progress=1 is byte-identical to the progress-free protocol.
type progressLine struct {
	Progress runctx.Event `json:"progress"`
}

// progressMinInterval throttles progress lines on a stream: inner loops
// tick per bit/sample, which is far finer than any client needs.
const progressMinInterval = 100 * time.Millisecond

// spanLine is the NDJSON envelope for one completed span on a ?trace=1
// stream; like progress lines, span lines are additive — stripping them
// yields the exact untraced stream.
type spanLine struct {
	Span obs.SpanData `json:"span"`
}

// traceLine is the stream's final trace summary under ?trace=1. The full
// span tree stays retrievable at /v1/traces/{id}.
type traceLine struct {
	Trace traceSummary `json:"trace"`
}

// traceSummary is one /v1/traces index row.
type traceSummary struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	Spans int       `json:"spans"`
}

// boolParam parses a 0|1|true|false query parameter ("" is false).
func boolParam(v, name string) (bool, error) {
	switch v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, fmt.Errorf("bad %s %q: want 0|1", name, v)
}

// openStream starts the NDJSON response of a streaming endpoint. A
// stream with results to simulate (missing > 0; what names them) is one
// job against the queue, whatever its length — its internal parallelism
// is already bounded by Workers — and with the queue full it is refused
// with 429 before a byte is written, returning a nil writer. Otherwise
// it returns the stream's writer, its run context, and an end func the
// caller must defer.
//
// The run context decides what a disconnect means. With CancelAbandoned
// it is the request context: a disconnect skips unstarted work and
// abandons (thereby cancelling, if unshared) the in-flight runs.
// Otherwise it is the server lifecycle: the stream keeps simulating
// into the cache, and only Close stops it. With traced set, the run
// context also carries a request trace named for the route (its root
// span carrying attrs) whose completed spans interleave into the stream;
// end closes the root span, writes the final {"trace": ...} summary
// line, and retains the trace for /v1/traces.
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, missing int, what string, traced bool, attrs ...obs.Attr) (*streamWriter, context.Context, func()) {
	if missing > 0 && !s.admit() {
		s.fail(w, http.StatusTooManyRequests, fmt.Errorf("%d %s need simulation, queue full", missing, what))
		return nil, nil, nil
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sw := &streamWriter{enc: json.NewEncoder(w), flusher: flusher}
	runCtx := s.lifecycle
	if s.cancelAbandoned {
		runCtx = r.Context()
	}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace(requestIDFrom(r.Context()), r.Pattern)
		for _, a := range attrs {
			tr.Root().SetAttr(a.Key, a.Value)
		}
		tr.OnSpanEnd(func(sd obs.SpanData) {
			sw.writeLine(spanLine{Span: sd})
		})
		runCtx = tr.Context(runCtx)
	}
	return sw, runCtx, func() {
		if tr != nil {
			tr.Finish()
			sw.writeLine(traceLine{Trace: traceSummary{
				ID: tr.ID(), Name: tr.Name(), Start: tr.Start(), Spans: tr.Len(),
			}})
			s.traces.Add(tr)
			s.metrics.Traces.Add(1)
		}
		sw.close()
		if missing > 0 {
			s.release()
		}
	}
}

// streamWriter serializes NDJSON result and progress lines onto one
// response. Progress ticks arrive from simulation goroutines that can
// outlive the request (detached flights), so every write is gated on
// closed, flipped under mu before the handler returns — after that,
// ticks are dropped rather than touching a dead ResponseWriter.
type streamWriter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	closed  bool
	last    time.Time // last progress line, for throttling
}

// writeLine encodes one NDJSON line of any shape (result rows, sweep
// rows, the sweep report envelope) under the same closed gate.
func (sw *streamWriter) writeLine(v any) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return
	}
	sw.enc.Encode(v)
}

func (sw *streamWriter) writeProgress(ev runctx.Event) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed || time.Since(sw.last) < progressMinInterval {
		return
	}
	sw.last = time.Now()
	sw.enc.Encode(progressLine{Progress: ev})
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

func (sw *streamWriter) flush() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

func (sw *streamWriter) close() {
	sw.mu.Lock()
	sw.closed = true
	sw.mu.Unlock()
}

// handleRun streams the selected artifacts as NDJSON in catalog order.
// Cached artifacts are served from the cache; the rest execute on the
// shared simulation slots via RunEmitCtx, each routed through the flight
// group so a stream never duplicates a simulation another stream or a
// single-artifact request already has in flight. Each line is flushed
// as soon as its catalog-order prefix is complete; with ?progress=1,
// throttled progress events are interleaved between result lines as the
// simulations tick. A stream needing any simulation counts as one job
// against the queue, so overload pushes back with 429 while an idle
// server always accepts sel=all.
//
// Client disconnects follow the server's abandonment policy: by default
// the remaining simulations run to completion and warm the cache; with
// CancelAbandoned the stream's unshared flights are cancelled and its
// unstarted artifacts skipped, freeing the worker slots within one
// checkpoint. Server shutdown always cancels.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	o, err := s.requestOpts(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	progress, err := boolParam(q.Get("progress"), "progress")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	traced, err := boolParam(q.Get("trace"), "trace")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var patterns []string
	for _, sel := range q["sel"] {
		patterns = append(patterns, strings.Split(sel, ",")...)
	}
	if len(patterns) == 0 {
		patterns = []string{"all"}
	}
	arts, err := s.reg.Select(patterns...)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// Partition the selection: results already cached versus artifacts
	// that need a simulation. A hit counts when its line is written, so
	// a stream refused with 429 served nothing and counts nothing.
	keys := make([]string, len(arts))
	results := make([]experiments.Result, len(arts))
	cached := make([]bool, len(arts))
	var missing []int
	for i, a := range arts {
		keys[i] = o.CacheKey(a.Name)
		if res, hit := s.cacheGet(r.Context(), keys[i]); hit {
			results[i], cached[i] = res, true
		} else {
			missing = append(missing, i)
		}
	}
	sw, runCtx, end := s.openStream(w, r, len(missing), "artifacts", traced,
		obs.String("sel", strings.Join(patterns, ",")))
	if sw == nil {
		return
	}
	defer end()
	var sink runctx.Sink
	if progress {
		// The sink is decoupled from the simulation by a bounded buffer:
		// a client draining its stream slowly loses progress lines, never
		// simulation throughput.
		nb, stop := runctx.NonBlocking(sw.writeProgress, 0)
		sink = nb
		defer stop()
	}

	next := 0 // next catalog-order index to emit
	emitReady := func(limit int) {
		for ; next <= limit; next++ {
			src := "miss"
			if cached[next] {
				src = "hit"
				s.metrics.CacheHits.Add(1)
			}
			_, rsp := obs.Start(runCtx, "render",
				obs.String("artifact", arts[next].Name), obs.String("cache", src))
			sw.writeLine(results[next])
			rsp.End()
		}
		sw.flush()
	}
	// The cached prefix is available now — stream it before the first
	// simulation rather than after it.
	firstMissing := len(arts)
	if len(missing) > 0 {
		firstMissing = missing[0]
	}
	if firstMissing > 0 {
		emitReady(firstMissing - 1)
	}

	// Each missing artifact resolves through the flight group (which
	// runs it on a shared simulation slot, or joins a run already in
	// flight elsewhere); RunEmitCtx calls back in input order (== catalog
	// order), so the k-th emission is arts[missing[k]].
	wrapped := make([]experiments.Artifact, len(missing))
	for k, i := range missing {
		a, key := arts[i], keys[i]
		wrapped[k] = a
		wrapped[k].Run = func(rc experiments.RunCtx, _ experiments.Opts) (any, string, error) {
			res, err := retryBusy(rc.Context(), func() (experiments.Result, error) {
				return s.resolve(rc.Context(), key, false, s.artifactRun(a, o, sink), obs.String("artifact", a.Name))
			})
			if err != nil {
				return nil, "", err
			}
			return res.Data, res.Rendered, nil
		}
	}
	emitted := 0
	experiments.Runner{Opts: o, Workers: s.workers}.RunEmitCtx(
		runctx.New(runCtx, nil), wrapped, func(res experiments.Result) {
			res.Elapsed = 0 // determinism: the stream depends only on (sel, Opts)
			idx := missing[emitted]
			emitted++
			results[idx] = res
			emitReady(idx)
		})
	if next < len(arts) {
		emitReady(len(arts) - 1)
	}
}

// channelEntry is one /v1/channels row: the canonical string form
// (directly usable as documentation or a cache-key body) plus the
// structured spec a client can POST back.
type channelEntry struct {
	Spec      spec.ChannelSpec `json:"spec"`
	Canonical string           `json:"canonical"`
}

// handleChannels enumerates the valid scenario space — the daemon's
// servable covert-channel surface. ?filter= narrows it with the same
// query grammar POST /v1/sweeps takes (a malformed filter is a 400
// before any enumeration); the historical model-only ?model= remains
// as an alias and composes with the filter.
func (s *Server) handleChannels(w http.ResponseWriter, r *http.Request) {
	f, err := sweep.ParseFilter(r.URL.Query().Get("filter"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	models := cpu.Models()
	if name := r.URL.Query().Get("model"); name != "" {
		m, err := spec.ChannelSpec{Model: name}.ResolveModel()
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		models = []cpu.Model{m}
	}
	entries := []channelEntry{}
	for _, cs := range spec.Enumerate(models...) {
		if f.Match(cs) {
			entries = append(entries, channelEntry{Spec: cs, Canonical: cs.String()})
		}
	}
	s.writeJSON(w, entries)
}

// channelRunRequest is the POST /v1/channels/run body. Opts follows the
// artifact endpoints' semantics: bits scales the message, seed is the
// fallback when the spec leaves its own seed unset, samples is ignored.
type channelRunRequest struct {
	Spec spec.ChannelSpec `json:"spec"`
	Opts experiments.Opts `json:"opts"`
}

// handleChannelRun runs one declared scenario through the same cache /
// singleflight / job-queue machinery as the artifact endpoints. A body
// that does not parse or a spec that fails validation is a 400 before
// any queue or worker slot is consumed.
func (s *Server) handleChannelRun(w http.ResponseWriter, r *http.Request) {
	var req channelRunRequest
	if !s.decodeBody(w, r, 64<<10, &req) {
		return
	}
	s.respond(w, r, false, func(ctx context.Context) (experiments.Result, error) {
		return s.ChannelRun(ctx, req.Spec, req.Opts)
	})
}

// handleTraces lists the retained request traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	list := s.traces.List()
	entries := make([]traceSummary, len(list))
	for i, tr := range list {
		entries[i] = traceSummary{ID: tr.ID(), Name: tr.Name(), Start: tr.Start(), Spans: tr.Len()}
	}
	s.writeJSON(w, entries)
}

// traceDetail is the ?format=json body of GET /v1/traces/{id}.
type traceDetail struct {
	ID    string         `json:"id"`
	Name  string         `json:"name"`
	Start time.Time      `json:"start"`
	Spans []obs.SpanData `json:"spans"`
}

// handleTrace serves one retained trace: the span tree as JSON
// (default), an NDJSON span stream, or Chrome trace_event JSON
// (?format=chrome) loadable directly in about:tracing or
// https://ui.perfetto.dev.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (only recent ?trace=1 requests are retained)", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.writeJSON(w, traceDetail{ID: tr.ID(), Name: tr.Name(), Start: tr.Start(), Spans: tr.Spans()})
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteNDJSON(w, tr)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, tr)
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (json|ndjson|chrome)", format))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if since := s.queueFull.Load(); since != 0 {
		if d := time.Since(time.Unix(0, since)); d > s.healthPoll {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: job queue full for %s\n", d.Round(time.Millisecond))
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render(s.cache.Len(), int(s.depth), s.store.Stats(), s.fleet.Stats()))
}

// requestOpts merges the server's base options with the request's
// ?seed=, ?bits=, ?samples= overrides.
func (s *Server) requestOpts(r *http.Request) (experiments.Opts, error) {
	o := s.opts
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil || seed == 0 {
			// Seed 0 means "unset" to Opts.Normalize; accepting it would
			// silently alias the seed=1 cache entry.
			return o, fmt.Errorf("bad seed %q: want an integer >= 1", v)
		}
		o.Seed = seed
	}
	if v := q.Get("bits"); v != "" {
		bits, err := strconv.Atoi(v)
		if err != nil || bits <= 0 || bits > maxBits {
			return o, fmt.Errorf("bad bits %q: want 1..%d", v, maxBits)
		}
		o.Bits = bits
	}
	if v := q.Get("samples"); v != "" {
		samples, err := strconv.Atoi(v)
		if err != nil || samples <= 0 || samples > maxSamples {
			return o, fmt.Errorf("bad samples %q: want 1..%d", v, maxSamples)
		}
		o.Samples = samples
	}
	return o, nil
}

// Scale caps for request parameters. With the default abandonment
// policy a simulation runs to completion once admitted (warming the
// cache for the next caller), so the caps bound the damage an abandoned
// max-scale request can do to ~10x the paper's scales; -cancel-abandoned
// tightens that further by freeing the slots the moment the last waiter
// leaves.
const (
	maxBits    = 2_000
	maxSamples = 1_000
)

// decodeBody decodes r's JSON body into v, rejecting unknown fields. The
// read is bounded to limit bytes — any valid body is far smaller — so a
// streamed giant body cannot balloon memory before validation rejects
// it. A bad body is answered 400 and reported false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// failErr maps serving-layer errors to their HTTP statuses.
func (s *Server) failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, ErrBadSpec):
		s.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrBusy):
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout,
			errors.New("timed out waiting for result (it may still be cached)"))
	case errors.Is(err, context.Canceled):
		// The client went away; nobody is listening and the server did
		// nothing wrong, so this is neither an error nor a timeout.
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// fail writes an error response, attributing it to the matching counter:
// 429s are backpressure, 504s are timeouts, the rest are errors.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	switch code {
	case http.StatusTooManyRequests:
		s.metrics.Rejected.Add(1)
	case http.StatusGatewayTimeout:
		s.metrics.Timeouts.Add(1)
	default:
		s.metrics.Errors.Add(1)
	}
	http.Error(w, err.Error(), code)
}
