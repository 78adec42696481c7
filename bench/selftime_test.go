package main

import (
	"testing"

	"repro/internal/obs"
)

func TestSelfTimesSumToRootDuration(t *testing.T) {
	// root [0,100) holds two "a" spans; the second is split exactly by
	// its children "b" and "c", which end where it ends.
	spans := []obs.SpanData{
		{ID: 1, Name: "root", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, DurUS: 30},
		{ID: 3, Parent: 2, Name: "b", StartUS: 15, DurUS: 10},
		{ID: 4, Parent: 1, Name: "a", StartUS: 50, DurUS: 40},
		{ID: 5, Parent: 4, Name: "b", StartUS: 55, DurUS: 15},
		{ID: 6, Parent: 4, Name: "c", StartUS: 70, DurUS: 20},
	}
	self := selfTimes(spans, byName)
	want := map[string]int64{"root": 30, "a": 20 + 5, "b": 10 + 15, "c": 20}
	var sum int64
	for name, us := range self {
		sum += us
		if us != want[name] {
			t.Errorf("self time of %s = %d us, want %d", name, us, want[name])
		}
	}
	if sum != spans[0].DurUS {
		t.Errorf("self times sum to %d us, want the root's %d", sum, spans[0].DurUS)
	}
}

func TestSelfTimesCountConcurrentChildrenOnce(t *testing.T) {
	// Two workers overlap under one parent, and one outlives it: the
	// parent's covered time is the clipped union [10,100), not the sum.
	spans := []obs.SpanData{
		{ID: 1, Name: "sweep", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "spec", StartUS: 10, DurUS: 50},
		{ID: 3, Parent: 1, Name: "spec", StartUS: 30, DurUS: 80},
	}
	if got := selfTimes(spans, byName)["sweep"]; got != 10 {
		t.Errorf("self time of the parent = %d us, want 10", got)
	}
}
