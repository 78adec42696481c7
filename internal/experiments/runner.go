package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runctx"
)

// Result records one artifact run: the derived per-artifact seed, the
// structured data, the rendered table text, and the wall-clock cost.
// Err is set (and Data/Rendered empty) when the artifact did not
// complete — cancelled mid-run or skipped because the run's context was
// already cancelled; completed artifacts in the same run are unaffected
// and byte-identical to an uninterrupted run's.
type Result struct {
	Name     string        `json:"name"`
	Ref      string        `json:"ref"`
	Desc     string        `json:"desc"`
	Seed     uint64        `json:"seed"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Rendered string        `json:"rendered"`
	Data     any           `json:"data,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// Runner executes artifacts on a bounded worker pool. Each artifact runs
// with a seed split deterministically from the top-level Opts.Seed by
// artifact name, so results are bit-identical no matter how many workers
// execute them or in which order they are scheduled.
type Runner struct {
	Opts    Opts // base scale; Opts.Seed is the top-level seed
	Workers int  // max artifacts in flight; <= 0 means 1 (serial)
}

// ArtifactOpts returns the per-artifact options the runner would use for
// the named artifact: the base options with the seed split by name.
func (rn Runner) ArtifactOpts(name string) Opts {
	o := rn.Opts.Normalize()
	o.Seed = rng.SplitSeed(o.Seed, name)
	return o
}

// Run executes the artifacts and returns results in input order.
func (rn Runner) Run(arts []Artifact) []Result {
	return rn.RunEmit(arts, nil)
}

// RunEmit executes the artifacts without cancellation or progress.
func (rn Runner) RunEmit(arts []Artifact, emit func(Result)) []Result {
	return rn.RunEmitCtx(RunCtx{}, arts, emit)
}

// RunEmitCtx executes the artifacts under rc and, when emit is non-nil,
// calls it from the calling goroutine for each result in input order as
// soon as every earlier artifact has also finished. This streams
// completed work to the caller (e.g. the CLI printing tables
// incrementally) without perturbing result order or content.
//
// Cancellation is cooperative and per-artifact: a running artifact
// unwinds at its next checkpoint and an artifact whose turn comes after
// cancellation never starts, in both cases yielding a Result with Err
// set and no data. Artifacts that completed before the cancellation are
// emitted and returned intact — their bytes are identical to an
// uninterrupted run's, because each artifact's seed is split from the
// top-level seed by name, independent of what else ran. Workers drain
// instantly once rc is cancelled, so a caller holding scarce simulation
// slots gets them back within one checkpoint interval.
func (rn Runner) RunEmitCtx(rc RunCtx, arts []Artifact, emit func(Result)) []Result {
	results := make([]Result, len(arts))
	run := func(i int) {
		a := arts[i]
		ao := rn.ArtifactOpts(a.Name)
		res := Result{Name: a.Name, Ref: a.Ref, Desc: a.Desc, Seed: ao.Seed}
		if err := rc.Err(); err != nil {
			res.Err = err.Error()
		} else {
			// Per-artifact span (no-op when rc is untraced); seed and name
			// tie a profile track to the exact rerunnable artifact
			// invocation.
			arc, span := rc.WithArtifact(a.Name).StartSpan("artifact",
				obs.String("artifact", a.Name),
				obs.String("ref", a.Ref),
				obs.String("seed", fmt.Sprint(ao.Seed)))
			start := time.Now()
			data, rendered, err := a.Run(arc, ao)
			res.Elapsed = time.Since(start)
			if err != nil {
				res.Err = err.Error()
				span.SetAttr("err", res.Err)
			} else {
				res.Rendered, res.Data = rendered, data
			}
			span.End()
		}
		results[i] = res
	}
	runctx.Ordered(len(arts), rn.Workers, run, func(i int) {
		if emit != nil {
			emit(results[i])
		}
	})
	return results
}

// RenderText concatenates the rendered artifacts in result order,
// separated by blank lines; artifacts that did not complete (Err set)
// render nothing, so a partially cancelled run's text is exactly the
// completed prefix of an uninterrupted run's per-artifact blocks. With
// timing enabled it appends a per-artifact wall-clock table; the
// artifact text itself is unchanged, so timed and untimed runs stay
// byte-identical over the artifact portion.
func RenderText(results []Result, timing bool) string {
	var b strings.Builder
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		b.WriteString(r.Rendered)
		if !strings.HasSuffix(r.Rendered, "\n") {
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	if timing {
		b.WriteString(RenderTimings(results))
	}
	return b.String()
}

// RenderTimings renders the per-artifact wall-clock table alone.
func RenderTimings(results []Result) string {
	var b strings.Builder
	var total time.Duration
	fmt.Fprintf(&b, "wall-clock per artifact:\n")
	for _, r := range results {
		total += r.Elapsed
		if r.Err != "" {
			fmt.Fprintf(&b, "  %-10s %10.3fs (did not complete: %s)\n", r.Name, r.Elapsed.Seconds(), r.Err)
			continue
		}
		fmt.Fprintf(&b, "  %-10s %10.3fs\n", r.Name, r.Elapsed.Seconds())
	}
	fmt.Fprintf(&b, "  %-10s %10.3fs (sum of artifact times)\n", "total", total.Seconds())
	return b.String()
}

// RenderJSON marshals the results as an indented JSON array.
func RenderJSON(results []Result) ([]byte, error) {
	return json.MarshalIndent(results, "", "  ")
}
