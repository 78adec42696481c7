package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/channel"
	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/leakfuzz"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/victim"
)

// runLedger times fixed inputs against each layer of the stack, bottom
// up: frontend delivery, one core cycle, core and executor set-up, the
// sweep expansion, one build/calibrate/transmit chain per channel
// family, one fuzzer evaluation, a fingerprint trace, a store round trip
// and a cold and a warm daemon request. The inputs are the same on every
// workload, so each traced run carries the whole ledger.
func runLedger(c *child) error {
	l := c.res.Layer
	seed := c.cfg.seed
	start := time.Now()

	l["cpu.step_ns"] = coreStepNS(c, seed)
	l["cpu.newcore_us"] = perOpNS(200, func() { cpu.NewCore(cpu.Gold6226(), seed) }) / 1e3
	for _, p := range []struct {
		name   string
		lsd    bool
		blocks []*isa.Block
		src    func(frontend.ThreadCounters) bool
	}{
		// Eight aligned same-set blocks fit the DSB; with the LSD off the
		// loop streams from the DSB, with it on the LSD locks onto it.
		// Nine exceed the set's ways and thrash into MITE (Section IV-F).
		{"dsb", false, isa.MixChain(3, 8, true), func(t frontend.ThreadCounters) bool { return t.UOpsDSB > t.UOpsMITE+t.UOpsLSD }},
		{"lsd", true, isa.MixChain(3, 8, true), func(t frontend.ThreadCounters) bool { return t.UOpsLSD > t.UOpsMITE+t.UOpsDSB }},
		{"mite", true, isa.MixChain(3, 9, true), func(t frontend.ThreadCounters) bool { return t.UOpsMITE > t.UOpsDSB+t.UOpsLSD }},
	} {
		f := frontend.New(frontend.DefaultParams(), cache.New(cache.L1Config), p.lsd)
		f.SetStream(0, isa.NewLoopStream(p.blocks, 1<<30))
		deliver := func() {
			f.DeliverCycle(0)
			for range 4 {
				f.PopUOp(0)
			}
		}
		for range 20_000 {
			deliver()
		}
		f.ResetCounters()
		l["frontend.deliver_ns."+p.name] = perOpNS(100_000, deliver)
		if !p.src(f.Ctr[0]) {
			c.problem("frontend ledger: the %s stream was not delivered mostly by %s: %+v", p.name, p.name, f.Ctr[0])
		}
	}

	full := sweep.Options{Bits: 16, CalibBits: 4, MaxP: 40, Seed: seed}
	var expandErr error
	l["sweep.expand_us"] = perOpNS(20, func() { _, expandErr = sweep.Expand(sweep.Filter{}, full) }) / 1e3
	if expandErr != nil {
		return expandErr
	}
	if err := ledgerFamilies(c, full); err != nil {
		return err
	}

	m, p := cpu.Gold6226(), contract.DefaultParams()
	r := rng.New(rng.SplitSeed(seed, "ledger-genomes"))
	const genomes = 64
	var newExec, exec time.Duration
	for range genomes {
		raw := make([]byte, 21)
		for i := range raw {
			raw[i] = byte(r.Intn(256))
		}
		ne, total := evaluate(c, nil, m, seed, p, leakfuzz.DecodeGenome(raw))
		newExec += ne
		exec += total
	}
	l["contract.newexecutor_us"] = float64(newExec.Nanoseconds()) / (2 * genomes) / 1e3
	l["contract.exec_us"] = float64(exec.Nanoseconds()) / genomes / 1e3

	cfg := fingerprint.DefaultConfig(cpu.Gold6226())
	cfg.Seed, cfg.Samples = seed, 25
	t := time.Now()
	fingerprint.Trace(cfg, victim.CNNs()[0])
	l["fingerprint.trace_ms"] = msSince(t)

	if err := ledgerStore(c, full); err != nil {
		return err
	}
	if err := ledgerServe(c, seed); err != nil {
		return err
	}
	c.res.WallS = time.Since(start).Seconds()
	return nil
}

// coreStepNS times Core.RunCycles over a six-block receiver loop, the
// shape every attack pass executes, in nanoseconds per simulated cycle.
func coreStepNS(c *child, seed uint64) float64 {
	core := cpu.NewCore(cpu.Gold6226(), seed)
	core.Enqueue(0, isa.NewLoopStream(isa.MixChain(20, 6, true), 1<<30), nil)
	core.RunCycles(10_000)
	const cycles = 200_000
	ns := perOpNS(1, func() { core.RunCycles(cycles) }) / cycles
	if core.Idle() {
		c.problem("core ledger: the loop finished early")
	}
	return ns
}

// ledgerFamilies runs the first undefended spec of each channel family
// through transmitChain: build and calibration time (medians over the
// families), transmit time per message bit by family, and host time per
// simulated cycle.
func ledgerFamilies(c *child, o sweep.Options) error {
	f, err := sweep.ParseFilter("defense=none")
	if err != nil {
		return err
	}
	specs, err := sweep.Expand(f, o)
	if err != nil {
		return err
	}
	first := map[string]spec.ChannelSpec{}
	for _, cs := range specs {
		if _, ok := first[family(cs)]; !ok {
			first[family(cs)] = cs
		}
	}
	var builds, calibs []float64
	var transmitNS, cycles float64
	for _, fam := range families {
		cs, ok := first[fam]
		if !ok {
			return fmt.Errorf("ledger: no %s spec in the scenario space", fam)
		}
		// An SGX-MT bit costs about a hundred times a plain one.
		bits := 16
		if fam == "sgx_mt" {
			bits = 2
		}
		res, ct, err := transmitChain(c, nil, cs, bits)
		if err != nil {
			return fmt.Errorf("ledger: %s: %w", cs, err)
		}
		builds = append(builds, float64(ct.build.Nanoseconds())/1e3)
		calibs = append(calibs, float64(ct.calibrate.Nanoseconds())/1e3)
		c.res.Layer["attack.sendbit_us."+fam] = float64(ct.transmit.Nanoseconds()) / float64(bits) / 1e3
		transmitNS += float64(ct.transmit.Nanoseconds())
		cycles += float64(res.Cycles)
	}
	c.res.Layer["spec.build_us"] = median(builds)
	c.res.Layer["channel.calibrate_us"] = median(calibs)
	c.res.Layer["cpu.ns_per_sim_cycle"] = transmitNS / cycles
	return nil
}

// ledgerStore times a Put and a Get of 200 channel results in a fresh
// store and checks each round trip returns what was stored.
func ledgerStore(c *child, o sweep.Options) error {
	specs, err := sweep.Expand(sweep.Filter{}, o)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.cfg.out, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	const n = 200
	keys := make([]string, n)
	want := make([][]byte, n)
	var put, get time.Duration
	for i := range n {
		cs := specs[i%len(specs)]
		bits := o.Bits + i/len(specs)
		msg := channel.Alternating(bits)
		res := store.ChannelResult(cs, channel.Result{Channel: family(cs), Model: cs.Model, Sent: msg, Received: msg,
			Cycles: uint64(1000 + i), Seconds: 1e-6, RateKbps: 100})
		keys[i] = store.ChannelKey(cs, bits)
		if want[i], err = json.Marshal(res); err != nil {
			return err
		}
		t := time.Now()
		err := st.Put(context.Background(), keys[i], res)
		put += time.Since(t)
		if err != nil {
			return err
		}
	}
	for i := range n {
		t := time.Now()
		res, ok := st.Get(context.Background(), keys[i])
		get += time.Since(t)
		got, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(got, want[i]) {
			c.problem("store ledger: %s did not round-trip", keys[i])
		}
	}
	c.res.Layer["store.put_us"] = float64(put.Nanoseconds()) / n / 1e3
	c.res.Layer["store.get_us"] = float64(get.Nanoseconds()) / n / 1e3
	return nil
}

// ledgerServe boots a leakyfed without a store and times one cold
// channel run of a cheap slow-switch spec, then the median of 200 cache
// hits on it.
func ledgerServe(c *child, seed uint64) error {
	dir, err := os.MkdirTemp(c.cfg.out, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	client := newClient()
	defer client.CloseIdleConnections()
	d, err := startDaemon([]string{"-workers", strconv.Itoa(workers)}, filepath.Join(dir, "leakyfed.log"), client)
	if err != nil {
		return err
	}
	defer d.kill()
	cs := spec.ChannelSpec{Model: "Gold 6226", Mechanism: spec.MechanismSlowSwitch, CalibBits: 4, Seed: seed}
	body, err := json.Marshal(map[string]any{"spec": cs, "opts": map[string]int{"bits": 16}})
	if err != nil {
		return err
	}
	rq := request{method: http.MethodPost, path: "/v1/channels/run", body: body}
	t := time.Now()
	status, cold, err := d.do(client, rq)
	c.res.Layer["serve.cold_ms"] = msSince(t)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("ledger: cold channel run: status %d, %v", status, err)
	}
	hits := make([]float64, 200)
	for i := range hits {
		t := time.Now()
		status, b, err := d.do(client, rq)
		hits[i] = msSince(t) * 1e3
		if err != nil || status != http.StatusOK || !bytes.Equal(b, cold) {
			c.problem("serve ledger: cache hit %d: status %d, %v, identical bytes %v", i, status, err, bytes.Equal(b, cold))
		}
	}
	c.res.Layer["serve.hit_us"] = median(hits)
	_, err = d.stop(client)
	return err
}

// perOpNS returns the median, over five batches of n calls, of fn's
// wall time per call in nanoseconds.
func perOpNS(n int, fn func()) float64 {
	var per []float64
	for range 5 {
		t := time.Now()
		for range n {
			fn()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(per)
}
