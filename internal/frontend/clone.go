package frontend

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// This file implements deep-copying of the frontend so a calibrated
// simulator snapshot can be replayed byte-for-byte (the sweep engine's
// calibration memoization, the leakage-contract executor's mid-stream
// snapshots). Every mutable structure is copied; the only shared data is
// immutable (decoded instruction slices inside streams).

// Clone returns a deep copy of the DSB: identical contents, recency
// ticks, partitioning mode, and statistics.
func (d *DSB) Clone() *DSB {
	c := &DSB{p: d.p, tick: d.tick, partitioned: d.partitioned, stats: d.stats}
	c.sets = make([][]dsbEntry, len(d.sets))
	for i, set := range d.sets {
		c.sets[i] = append(make([]dsbEntry, 0, cap(set)), set...)
	}
	return c
}

// cloneWith returns a deep copy of the detector retargeted at the given
// alignment tracker (the tracker is shared by both threads' detectors on
// a core, so the core clones it once and hands it to both).
func (l *LSD) cloneWith(align *AlignTracker) *LSD {
	c := *l
	c.align = align
	c.windows = append([]uint64(nil), l.windows...)
	c.lockedWindows = append([]uint64(nil), l.lockedWindows...)
	return &c
}

// Clone returns a copy of the alignment tracker.
func (a *AlignTracker) Clone() *AlignTracker {
	c := *a
	return &c
}

func (b *switchBuffer) clone() *switchBuffer {
	c := *b
	c.addrs = append([]uint64(nil), b.addrs...)
	c.counts = append([]uint8(nil), b.counts...)
	return &c
}

// cloneStream snapshots an in-flight instruction stream. Streams built
// from decoded instruction slices (LoopStream, SeqStream, Concat of
// those) are cloneable; an arbitrary FuncStream is not, and a frontend
// holding one mid-delivery cannot be cloned.
func cloneStream(s isa.Stream) isa.Stream {
	if s == nil {
		return nil
	}
	cs, ok := s.(isa.CloneableStream)
	if !ok {
		panic("frontend: CloneWith on a non-cloneable in-flight stream")
	}
	return cs.CloneStream()
}

// CloneWith returns a deep copy of the frontend. The clone's L1I is the
// caller-provided cache: the core owns the L1I and shares it with its
// frontend, so the core clones it once and passes it in. In-flight
// streams are snapshotted too, provided they are isa.CloneableStream
// (every stream the attack and contract layers build is); CloneWith
// panics on a live non-cloneable stream.
func (f *Frontend) CloneWith(l1i *cache.Cache) *Frontend {
	g := &Frontend{
		P:     f.P,
		DSB:   f.DSB.Clone(),
		L1I:   l1i,
		align: f.align.Clone(),
		sw:    f.sw.clone(),
		thr:   f.thr,
		Ctr:   f.Ctr,
	}
	for t := 0; t < 2; t++ {
		t := t
		g.BPU[t] = f.BPU[t].Clone()
		g.lsd[t] = f.lsd[t].cloneWith(g.align)
		g.idq[t] = f.idq[t].Clone()
		g.thr[t].stream = cloneStream(f.thr[t].stream)
		g.dsbRes[t] = func(w uint64) bool { return g.DSB.Contains(t, w) }
	}
	return g
}

// Stream returns thread t's in-flight instruction stream, or nil when
// drained. The core uses it after a clone to keep its task bookkeeping
// pointing at the same snapshot the frontend delivers from.
func (f *Frontend) Stream(t int) isa.Stream { return f.thr[t].stream }
