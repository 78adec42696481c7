package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRefusesBadFlagsBeforeRunning pins that a misspelled -expect
// mechanism and a budget below one evaluation are refused with status 2
// and one line on stderr naming the value, before any campaign output —
// not after a whole campaign, like a real regression.
func TestRefusesBadFlagsBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"-expect", "evction"}, `"evction"`},
		{[]string{"-expect", "eviction, slowswitch,unknown"}, `"unknown"`},
		{[]string{"-budget", "-5"}, "-budget -5"},
		{[]string{"-budget", "0"}, "-budget 0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit status %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout before refusing:\n%s", tc.args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.says) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%q: stderr = %q, want one line containing %s", tc.args, msg, tc.says)
		}
	}
}

// TestSmallCampaignBytes pins a small valid run's output: the report the
// command printed before run took over main's body.
func TestSmallCampaignBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/seed1_budget200.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1", "-budget", "200", "-expect", "eviction,misalignment,slowswitch,bpu"}, &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 {
		t.Errorf("exit status %d, stderr %q; want 0 and nothing", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from testdata/seed1_budget200.txt:\n%s", stdout.String())
	}
}
