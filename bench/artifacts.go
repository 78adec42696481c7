package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

// runArtifacts is the paper-artifacts workload: every registry artifact
// at the golden scale on the load's goroutine pool. Its time goes to a
// few long transmissions (the power and SGX tables) and the
// fingerprinting loop, so per-bit and per-cycle changes show here.
func runArtifacts(c *child) error {
	arts := experiments.Default().Artifacts()
	if c.cfg.smoke {
		var err error
		if arts, err = experiments.Default().Select("tableIV", "figure4", "figure10"); err != nil {
			return err
		}
	}
	opts := experiments.Opts{Bits: 24, Samples: 25, Seed: c.cfg.seed}
	if !c.ready(selfCPU()) {
		return nil
	}

	rendered := make([]string, len(arts))
	errs := make([]error, len(arts))
	c.measure(func() {
		parallel(len(arts), func(i int) {
			sp := c.span(nil, "experiments."+arts[i].Name)
			_, rendered[i], errs[i] = arts[i].Run(experiments.RunCtx{}, opts)
			sp.End()
		})
	})

	if committedSeed(c.cfg) {
		if _, err := os.Stat(goldenDir); err != nil {
			c.problem("the goldens of seed %d are missing (run from the repository root): %v", c.cfg.seed, err)
		}
	}
	for i, a := range arts {
		c.res.Attempted++
		if errs[i] != nil {
			c.res.Failed++
			c.problem("%s: %v", a.Name, errs[i])
			continue
		}
		c.digest("artifact/"+a.Name, []byte(rendered[i]))
		if err := c.checkGolden(a.Name, rendered[i]); err != nil {
			return err
		}
	}
	if c.tr != nil {
		names := map[string]string{}
		for _, a := range arts {
			names["experiments."+a.Name] = "experiments." + a.Name + ".share"
		}
		c.shares(byName, names)
	}
	return nil
}

// checkGolden compares an artifact's rendering with its committed golden
// file, which exists for the channel tables at seeds 1 and 2 only;
// runArtifacts has already failed the run if the golden directory is
// missing at those seeds.
func (c *child) checkGolden(name, rendered string) error {
	path := filepath.Join(goldenDir, fmt.Sprintf("%s_seed%d.golden", name, c.cfg.seed))
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if rendered != string(want) {
		c.problem("%s at seed %d differs from %s", name, c.cfg.seed, path)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
