package cpu

import "repro/internal/isa"

// CopyFrom overwrites c with a deep copy of src, reusing c's own
// structures: afterwards stepping c produces exactly the cycle counts,
// counter values, and RNG draws src would produce from this point, and
// c shares no mutable state with src. src may be of another model; c
// takes its model along with its state. Copying an idle core of the
// same model allocates nothing, which is how the leakage-contract
// executor restores a pristine core before every secret arm. In-flight and queued tasks are
// snapshotted too, as long as they carry no callbacks — a closure cannot
// be deep-copied, so CopyFrom panics on a task with OnStart/OnDone or a
// measurement callback still pending, leaving c partly copied.
func (c *Core) CopyFrom(src *Core) {
	c.Model = src.Model
	c.FE.CopyFrom(src.FE) // also copies the L1I, which the frontend shares
	*c.BE = *src.BE
	c.L1D.CopyFrom(src.L1D)
	*c.PM = *src.PM
	c.TSC.CopyFrom(src.TSC)
	*c.R = *src.R
	c.cycle = src.cycle
	c.lastBoth = src.lastBoth
	c.miteHold = src.miteHold
	c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall = src.prevLSD, src.prevDSB, src.prevMITE, src.prevStall
	for t := 0; t < 2; t++ {
		// The dispatched task's stream was installed in the frontend; the
		// frontend copy already snapshotted it, so point the copied task
		// at that same snapshot rather than cloning the stream twice.
		c.cur[t] = nil
		if src.cur[t] != nil {
			c.cur[t] = cloneTask(src.cur[t])
			c.cur[t].Stream = c.FE.Stream(t)
		}
		// Dispatched entries ahead of qhead are nil.
		c.queue[t], c.qhead[t] = c.queue[t][:0], src.qhead[t]
		for _, task := range src.queue[t] {
			if task != nil {
				task = cloneTask(task)
				task.Stream = cloneTaskStream(task.Stream)
			}
			c.queue[t] = append(c.queue[t], task)
		}
	}
}

// Clone returns a deep copy of the core: a new core of the same model
// with c's state copied in (see CopyFrom). The sweep engine clones cores
// at the quiescent point after a calibration preamble (always
// callback-free); the leakage-contract executor clones mid-stream.
func (c *Core) Clone() *Core {
	d := NewCore(c.Model, 0)
	d.CopyFrom(c)
	return d
}

// cloneTask copies a task's scalar state and rejects tasks whose
// callbacks would dangle into the original core's world.
func cloneTask(t *Task) *Task {
	if t.OnStart != nil || t.OnDone != nil || t.measCb != nil {
		panic("cpu: Clone with an in-flight callback-bearing task")
	}
	c := *t
	return &c
}

// cloneTaskStream snapshots a queued (not yet dispatched) task's stream.
func cloneTaskStream(s isa.Stream) isa.Stream {
	if s == nil {
		return nil
	}
	cs, ok := s.(isa.CloneableStream)
	if !ok {
		panic("cpu: Clone with a non-cloneable queued stream")
	}
	return cs.CloneStream()
}
