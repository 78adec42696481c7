package frontend

import "repro/internal/isa"

// This file implements copying of the frontend's state into an existing
// frontend, so a calibrated simulator snapshot can be replayed
// byte-for-byte (the sweep engine's calibration memoization, the
// leakage-contract executor's mid-stream snapshots and per-evaluation
// resets). Every mutable structure is copied into the destination's own
// buffers; the only shared data is immutable (decoded instruction
// slices inside streams).

// copyFrom overwrites d with src's contents, recency ticks, partitioning
// mode and statistics. The eviction scratch buffers stay d's own.
func (d *DSB) copyFrom(src *DSB) {
	sets, evict, surv := d.sets, d.evictScratch, d.survScratch
	*d = *src
	if len(sets) != len(src.sets) {
		sets = make([][]dsbEntry, len(src.sets))
	}
	for i, set := range src.sets {
		sets[i] = append(sets[i][:0], set...)
	}
	d.sets, d.evictScratch, d.survScratch = sets, evict, surv
}

// copyFrom overwrites l with src's detector state. l keeps its own
// alignment tracker: both threads' detectors on a frontend share one,
// and the frontend copies it once.
func (l *LSD) copyFrom(src *LSD) {
	align, windows, locked := l.align, l.windows, l.lockedWindows
	*l = *src
	l.align = align
	l.windows = append(windows[:0], src.windows...)
	l.lockedWindows = append(locked[:0], src.lockedWindows...)
}

func (b *switchBuffer) copyFrom(src *switchBuffer) {
	addrs, counts := b.addrs, b.counts
	*b = *src
	b.addrs = append(addrs[:0], src.addrs...)
	b.counts = append(counts[:0], src.counts...)
}

// cloneStream snapshots an in-flight instruction stream. Streams built
// from decoded instruction slices (LoopStream, SeqStream, Concat of
// those) are cloneable; an arbitrary FuncStream is not, and a frontend
// holding one mid-delivery cannot be copied.
func cloneStream(s isa.Stream) isa.Stream {
	if s == nil {
		return nil
	}
	cs, ok := s.(isa.CloneableStream)
	if !ok {
		panic("frontend: CopyFrom with a non-cloneable in-flight stream")
	}
	return cs.CloneStream()
}

// CopyFrom overwrites f with a deep copy of src, including the contents
// of src's L1I, reusing f's own structures: f's L1I stays the cache it
// was built with (the one its core shares), and only in-flight streams
// are newly allocated. In-flight streams must be isa.CloneableStream
// (every stream the attack and contract layers build is); CopyFrom
// panics on a live non-cloneable stream.
func (f *Frontend) CopyFrom(src *Frontend) {
	f.P = src.P
	f.DSB.copyFrom(src.DSB)
	f.L1I.CopyFrom(src.L1I)
	*f.align = *src.align
	f.sw.copyFrom(src.sw)
	f.Ctr = src.Ctr
	for t := 0; t < 2; t++ {
		*f.BPU[t] = *src.BPU[t]
		f.lsd[t].copyFrom(src.lsd[t])
		f.idq[t].CopyFrom(&src.idq[t])
		f.thr[t] = src.thr[t]
		f.thr[t].stream = cloneStream(src.thr[t].stream)
	}
}

// Stream returns thread t's in-flight instruction stream, or nil when
// drained. The core uses it after a copy to keep its task bookkeeping
// pointing at the same snapshot the frontend delivers from.
func (f *Frontend) Stream(t int) isa.Stream { return f.thr[t].stream }
