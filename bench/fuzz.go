package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/leakfuzz"
	"repro/internal/obs"
	"repro/internal/rng"
)

// paperFamilies are the channel families every campaign batch must
// rediscover.
var paperFamilies = []string{"eviction", "misalignment", "slowswitch"}

// fuzzCampaigns is how many campaigns one repetition runs: enough that
// the batch's cost varies little with the run seed, few enough that
// several repetitions fit one run.
const fuzzCampaigns = 32

// runFuzz is the fuzz-campaign workload: a batch of independent
// leakage-fuzzing campaigns, each shaped like the one CI runs and
// cmd/leakfuzz's defaults (Gold 6226, budget 2000), their seeds split
// from the run seed. Every evaluation builds two fresh cores and runs
// tiny programs, so core set-up and the contract window loop dominate.
// One campaign's cost moves by about 30% with its seed (the corpus it
// happens to grow); a batch of campaigns averages that out.
func runFuzz(c *child) error {
	n, budget := fuzzCampaigns, 2000
	if c.cfg.smoke {
		n, budget = 2, 200
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.SplitSeed(c.cfg.seed, fmt.Sprintf("campaign-%d", i))
	}
	if !c.ready(selfCPU()) {
		return nil
	}

	reports := make([]leakfuzz.Report, n)
	campaignMS := make([]float64, n)
	c.measure(func() {
		parallel(n, func(i int) {
			sp := c.span(nil, "leakfuzz.campaign")
			t := time.Now()
			reports[i] = leakfuzz.Run(leakfuzz.Options{Seed: seeds[i], Budget: budget})
			campaignMS[i] = msSince(t)
			sp.End()
		})
	})
	c.res.Attempted = n

	found := map[string]bool{}
	firsts := map[string][]float64{}
	var execs, corpus, features, findings, unclassified int
	for _, r := range reports {
		execs += r.Executions
		corpus += r.CorpusSize
		features += r.Features
		findings += len(r.Findings)
		for _, f := range r.Findings {
			found[string(f.Mechanism)] = true
			firsts[string(f.Mechanism)] = append(firsts[string(f.Mechanism)], float64(f.Executions))
			if f.Mechanism == contract.Unknown {
				unclassified++
			}
		}
	}
	for _, m := range paperFamilies {
		if !found[m] {
			c.problem("no campaign found the %s channel", m)
		}
	}
	blob, err := json.Marshal(reports)
	if err != nil {
		return err
	}
	c.digest("leakfuzz/reports", blob)

	l := c.res.Layer
	l["leakfuzz.execs"] = float64(execs)
	l["leakfuzz.corpus"] = float64(corpus)
	l["leakfuzz.features"] = float64(features)
	l["leakfuzz.findings"] = float64(findings)
	// Findings the contract cannot attribute to a known family; reported,
	// not failed on (see README, "Findings").
	l["leakfuzz.unclassified"] = float64(unclassified)
	for _, m := range mechanisms {
		l["leakfuzz.first_exec."+m] = median(firsts[m])
	}
	if c.tr != nil {
		overheadShare(c, seeds, reports, campaignMS, execs)
	}
	return nil
}

// overheadShare splits the traced repetition's campaign time into
// budgeted evaluations and the rest — mutation, coverage bookkeeping and
// minimization. leakfuzz.Run does not expose its evaluations, so one
// evaluation of every final-corpus genome is replayed under the same
// load to price the average one.
func overheadShare(c *child, seeds []uint64, reports []leakfuzz.Report, campaignMS []float64, execs int) {
	type job struct {
		seed uint64
		g    leakfuzz.Genome
	}
	var jobs []job
	for i, r := range reports {
		for _, g := range r.Corpus {
			jobs = append(jobs, job{seeds[i], g})
		}
	}
	m, p := cpu.Gold6226(), contract.DefaultParams()
	sp := c.span(nil, "contract.replay")
	evalNS := make([]int64, len(jobs))
	parallel(len(jobs), func(i int) {
		_, total := evaluate(c, sp, m, jobs[i].seed, p, jobs[i].g)
		evalNS[i] = total.Nanoseconds()
	})
	sp.End()
	var evalMS, totalMS float64
	for _, ns := range evalNS {
		evalMS += float64(ns) / 1e6
	}
	for _, ms := range campaignMS {
		totalMS += ms
	}
	if len(jobs) > 0 && totalMS > 0 {
		c.res.Layer["leakfuzz.overhead.share"] = 1 - float64(execs)*evalMS/float64(len(jobs))/totalMS
	}
}

// evaluate runs one fuzzer evaluation of g the way leakfuzz does: both
// secret arms on fresh executors, prep then probe observed on each, and
// the probe traces compared. It returns the time spent building
// executors and the evaluation's total.
func evaluate(c *child, parent *obs.Span, m cpu.Model, seed uint64, p contract.Params, g leakfuzz.Genome) (newExec, total time.Duration) {
	start := time.Now()
	sp := c.span(parent, "contract.exec")
	pair := g.BuildPair()
	var probes [2]contract.Trace
	for arm, prep := range [][]isa.Inst{pair.Prep0, pair.Prep1} {
		t := time.Now()
		s := c.span(sp, "contract.newexecutor")
		e := contract.NewExecutorWith(m, seed, p)
		s.End()
		newExec += time.Since(t)
		s = c.span(sp, "contract.observe")
		e.Observe(prep)
		probes[arm] = e.Observe(pair.Probe)
		s.End()
	}
	s := c.span(sp, "contract.compare")
	contract.Compare(probes[0], probes[1])
	s.End()
	sp.End()
	return newExec, time.Since(start)
}
