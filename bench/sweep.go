package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// sweepShard expands the sweep-space shard: the whole 176-spec scenario
// space (smoke: the Gold 6226 slow-switch specs) at a reduced scale —
// 16-bit messages, 4-bit calibration, the per-bit repetition p clamped
// to 40 — with per-spec seeds split from the run seed.
func sweepShard(c *child) (sweep.Filter, sweep.Options, []spec.ChannelSpec, error) {
	query := ""
	if c.cfg.smoke {
		query = "model=Gold 6226,mech=slowswitch"
	}
	f, err := sweep.ParseFilter(query)
	if err != nil {
		return f, sweep.Options{}, nil, err
	}
	o := sweep.Options{Bits: 16, CalibBits: 4, MaxP: 40, Seed: c.cfg.seed, Workers: workers}
	specs, err := sweep.Expand(f, o)
	return f, o, specs, err
}

// runSweep is the sweep-space workload: many short transmissions, so the
// per-spec fixed costs — build, calibration, snapshot clone, memo — do
// most of the work. The untraced repetition runs sweep.RunSpecs with its
// default memoizing runner; the traced one replaces the memo with the
// explicit build → calibrate → transmit chain per spec, with a span
// around each, and must render the same report.
func runSweep(c *child) error {
	f, o, specs, err := sweepShard(c)
	if err != nil {
		return err
	}
	if !c.ready(selfCPU()) {
		return nil
	}
	var rep sweep.Report
	var cycles uint64
	c.measure(func() {
		if c.tr != nil {
			rep, cycles = sweepTraced(c, f, o, specs)
			return
		}
		var mu sync.Mutex
		run := func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
			res, err := sweep.Memoized(ctx, cs, bits)
			mu.Lock()
			cycles += res.Cycles
			mu.Unlock()
			return res, err
		}
		rep = sweep.RunSpecs(context.Background(), f, o, specs, run, nil)
	})
	if c.tr == nil {
		c.res.Layer["sweep.memo_entries"] = float64(sweep.DefaultMemo.Len())
	}

	c.res.Attempted = len(rep.Rows)
	for _, row := range rep.Rows {
		if row.Err != "" {
			c.res.Failed++
			c.problem("%s: %s", row.Canonical, row.Err)
		}
	}
	c.digest("sweep/report", []byte(rep.Render()))
	c.res.Layer["sweep.specs"] = float64(len(specs))
	c.res.Layer["cpu.sim_cycles"] = float64(cycles)
	return nil
}

// sweepTraced runs the shard spec by spec through transmitChain on the
// load's goroutines and aggregates the rows exactly as sweep.RunSpecs
// does.
func sweepTraced(c *child, f sweep.Filter, o sweep.Options, specs []spec.ChannelSpec) (sweep.Report, uint64) {
	rows := make([]sweep.Row, len(specs))
	cycles := make([]uint64, len(specs))
	parallel(len(specs), func(i int) {
		cs := specs[i]
		sp := c.span(nil, "sweep.spec", obs.String("family", family(cs)))
		rows[i] = sweep.Row{Spec: cs, Canonical: cs.String()}
		if res, _, err := transmitChain(c, sp, cs, o.Bits); err != nil {
			rows[i].Err = err.Error()
		} else {
			rows[i].RateKbps, rows[i].ErrorRate = res.RateKbps, res.ErrorRate
			cycles[i] = res.Cycles
		}
		sp.End()
	})
	var total uint64
	for _, n := range cycles {
		total += n
	}

	c.shares(byName, map[string]string{
		"spec.build":        "spec.build.share",
		"channel.calibrate": "channel.calibrate.share",
		"channel.transmit":  "channel.transmit.share",
		"sweep.spec":        "", // per-spec bookkeeping: in the total only
	})
	var all, sgxMT int64
	for _, sd := range c.tr.Spans() {
		if sd.Name == "sweep.spec" {
			all += sd.DurUS
			if sd.Attrs["family"] == "sgx_mt" {
				sgxMT += sd.DurUS
			}
		}
	}
	if all > 0 {
		c.res.Layer["sweep.sgx_mt.share"] = float64(sgxMT) / float64(all)
	}
	return sweep.NewReport(f, o, rows), total
}

// chainTimes are the wall times of one transmission's three layer calls.
type chainTimes struct {
	build, calibrate, transmit time.Duration
}

// transmitChain transmits an alternating message over cs the way a
// calibration-memo miss does — resolve and build the channel, run the
// calibration preamble into a snapshot, transmit from a clone of it —
// with a span (under parent) and a timer around each layer call.
func transmitChain(c *child, parent *obs.Span, cs spec.ChannelSpec, bits int) (channel.Result, chainTimes, error) {
	var ct chainTimes
	t := time.Now()
	sp := c.span(parent, "spec.build")
	m, err := cs.ResolveModel()
	if err == nil {
		err = cs.ValidateFor(m)
	}
	var ch channel.BitChannel
	if err == nil {
		ch = cs.Build(m)
	}
	sp.End()
	ct.build = time.Since(t)
	if err != nil {
		return channel.Result{}, ct, err
	}
	cl, ok := ch.(channel.Cloneable)
	if !ok {
		return channel.Result{}, ct, fmt.Errorf("%s builds a non-cloneable channel", cs)
	}

	t = time.Now()
	sp = c.span(parent, "channel.calibrate")
	cal, err := channel.NewCalibrationCtx(runctx.Ctx{}, cl, m.Name, cs.CalibBits)
	sp.End()
	ct.calibrate = time.Since(t)
	if err != nil {
		return channel.Result{}, ct, err
	}

	t = time.Now()
	sp = c.span(parent, "channel.transmit")
	res, err := cal.TransmitCtx(runctx.Ctx{}, channel.Alternating(bits))
	sp.End()
	ct.transmit = time.Since(t)
	return res, ct, err
}

// family names the attack-channel family a spec belongs to, the unit the
// ledger reports per-bit cost in.
func family(cs spec.ChannelSpec) string {
	switch {
	case cs.Mechanism == spec.MechanismSlowSwitch:
		return "slowswitch"
	case cs.Sink == spec.SinkPower:
		return "power"
	case cs.SGX && cs.Threading == spec.ThreadingMT:
		return "sgx_mt"
	case cs.SGX:
		return "sgx_nonmt"
	case cs.Threading == spec.ThreadingMT:
		return "mt"
	case cs.Stealthy:
		return "nonmt_stealthy"
	default:
		return "nonmt"
	}
}
