package main

import (
	"sort"

	"repro/internal/obs"
)

// selfTimes sums span self time, in microseconds, per key(span). A span's
// self time is its duration minus the part of its interval that its
// direct children cover; children that overlap each other (concurrent
// workers under one parent) are counted once, as the union of their
// intervals. On a trace whose children never overlap, the self times of
// all spans add up to the root's duration.
func selfTimes(spans []obs.SpanData, key func(obs.SpanData) string) map[string]int64 {
	children := make(map[uint64][]obs.SpanData, len(spans))
	for _, sd := range spans {
		if sd.Parent != 0 {
			children[sd.Parent] = append(children[sd.Parent], sd)
		}
	}
	out := map[string]int64{}
	for _, sd := range spans {
		start, end := sd.StartUS, sd.StartUS+sd.DurUS
		out[key(sd)] += sd.DurUS - covered(children[sd.ID], start, end)
	}
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [start, end).
func covered(spans []obs.SpanData, start, end int64) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(spans))
	for _, sd := range spans {
		lo, hi := max(sd.StartUS, start), min(sd.StartUS+sd.DurUS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		total += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return total
}

// byName keys a span by its name alone.
func byName(sd obs.SpanData) string { return sd.Name }
