package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRefusesModelWithoutHyperThreading pins that a model without SMT
// is refused before any output, with one line on stderr naming
// hyper-threading and exit status 1, as an unknown model is.
func TestRefusesModelWithoutHyperThreading(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "Xeon E-2288G"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("wrote to stdout before refusing:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "hyper-threading") || strings.Count(msg, "\n") != 1 {
		t.Errorf("stderr = %q, want one line naming hyper-threading", msg)
	}
}

// TestRefusesUnknownModel pins the unknown-model path of run: exit
// status 1, nothing on stdout, the bad name echoed on stderr.
func TestRefusesUnknownModel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "Pentium 4"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Pentium 4") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
