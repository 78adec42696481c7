package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestReportCountsLSDLocks pins that the report's lock count comes from
// the loop stream detector itself: an 8-block chain streams almost all
// of its micro-ops from the LSD, so it must have locked at least once.
func TestReportCountsLSDLocks(t *testing.T) {
	var out bytes.Buffer
	run(&out, config{model: "Gold 6226", set: 3, blocks: 8, iters: 200, lsd: true, seed: 1})
	m := regexp.MustCompile(`LSD locks/flushes (\d+)/(\d+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no LSD line in report:\n%s", out.String())
	}
	if locks, _ := strconv.Atoi(m[1]); locks == 0 {
		t.Fatalf("LSD locks 0 for an LSD-resident loop:\n%s", out.String())
	}
	if !regexp.MustCompile(`uops via LSD +\d+ +\( *9\d\.\d%\)`).MatchString(out.String()) {
		t.Fatalf("8-block chain not LSD-delivered:\n%s", out.String())
	}
}
