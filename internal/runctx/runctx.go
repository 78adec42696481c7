// Package runctx threads cancellation, progress reporting, and tracing
// through the simulation stack. A Ctx pairs a context.Context with a
// progress sink; the expensive inner loops — covert-channel bit loops,
// fingerprint trace sampling, Spectre chunk leaks, experiment sweeps —
// call Step once per unit of work, which emits a progress tick and
// reports whether the run has been cancelled. Checkpoints never touch
// the simulation's RNG or timing state, so a run that is not cancelled
// is byte-identical with or without a context attached; cancellation
// only ever discards work, it cannot change completed results.
//
// Tracing rides the same discipline: StartSpan opens an internal/obs
// span when the underlying context carries a trace and is a no-op
// otherwise. Spans record wall-clock timing only — never simulation
// state — so a traced run's artifact bytes are identical to an
// untraced run's (the serving layer proves this byte-for-byte in its
// tests).
//
// The zero Ctx is valid: it is never cancelled, discards progress, and
// traces nothing, so context-free callers (tests, the public
// convenience API) pass Background() and pay two nil checks per
// checkpoint.
package runctx

import (
	"context"

	"repro/internal/obs"
)

// Event is one progress tick from inside a running artifact.
type Event struct {
	// Artifact is the registry name of the artifact reporting progress
	// (set by the experiment runner; empty for bare simulation calls).
	Artifact string `json:"artifact,omitempty"`
	// Stage names the inner loop, e.g. "MT Eviction-Based @ Gold 6226".
	Stage string `json:"stage,omitempty"`
	// Done counts completed units of the stage; Total is the stage's
	// size, or <= 0 when unknown in advance.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Sink receives progress events. A sink may be called concurrently from
// multiple artifact goroutines and must be safe for concurrent use; it
// should return quickly (throttle expensive handling inside the sink).
type Sink func(Event)

// Ctx carries a cancellation context and a progress sink down the
// simulation stack. Values are immutable and copied by value; deriving
// (WithArtifact) never mutates the parent.
type Ctx struct {
	ctx      context.Context
	sink     Sink
	artifact string
}

// New builds a Ctx from a context and a progress sink. Either may be
// nil: a nil ctx never cancels, a nil sink discards progress.
func New(ctx context.Context, sink Sink) Ctx {
	return Ctx{ctx: ctx, sink: sink}
}

// Background returns the never-cancelled, progress-discarding Ctx
// (equivalent to the zero value).
func Background() Ctx { return Ctx{} }

// Context returns the underlying context, never nil.
func (c Ctx) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// WithArtifact returns a copy whose progress events carry the artifact
// name.
func (c Ctx) WithArtifact(name string) Ctx {
	c.artifact = name
	return c
}

// WithContext returns a copy that runs under ctx — its cancellation and
// its trace — keeping the progress sink and the artifact name. A caller
// that derived a context from Context (a per-row span, say) binds it
// back this way, so the work below nests under that span.
func (c Ctx) WithContext(ctx context.Context) Ctx {
	c.ctx = ctx
	return c
}

// Artifact returns the artifact name progress events are attributed to.
func (c Ctx) Artifact() string { return c.artifact }

// Err reports the cancellation state: nil while the run may continue,
// context.Canceled or context.DeadlineExceeded once it must stop.
func (c Ctx) Err() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Tick emits a progress event without checking for cancellation.
func (c Ctx) Tick(stage string, done, total int) {
	if c.sink != nil {
		c.sink(Event{Artifact: c.artifact, Stage: stage, Done: done, Total: total})
	}
}

// Step is the cooperative checkpoint inner loops call once per unit of
// work: it emits a progress tick and returns the cancellation state.
// A non-nil return means the caller must unwind immediately, discarding
// partial work; by construction every completed unit before the
// checkpoint is identical to an uncancelled run's.
func (c Ctx) Step(stage string, done, total int) error {
	c.Tick(stage, done, total)
	return c.Err()
}

// StartSpan opens a trace span named name under the context's current
// span and returns the derived Ctx (for nested spans) plus the span to
// End. When the underlying context carries no trace — the zero Ctx,
// and every untraced run — it returns the receiver unchanged and a nil
// span whose End is a no-op, so call sites stay unconditional. Spans
// are called at stage boundaries (a calibration preamble, a whole
// transmit loop), never per unit of work, so tracing adds no per-bit
// cost.
func (c Ctx) StartSpan(name string, attrs ...obs.Attr) (Ctx, *obs.Span) {
	if c.ctx == nil {
		return c, nil
	}
	ctx, span := obs.Start(c.ctx, name, attrs...)
	if span == nil {
		return c, nil
	}
	c.ctx = ctx
	return c, span
}
