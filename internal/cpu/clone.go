package cpu

import "unsafe"

// CopyFrom overwrites c with a copy of src: afterwards stepping c
// produces exactly the cycle counts, counter values, and RNG draws src
// would produce from this point, and c shares no mutable state with src.
// src may be of another model; c takes its model along with its state.
//
// A core is a value — its parts are held inline and its streams are
// cursors over immutable instructions — so the copy is an assignment.
// Only the task queue is copied by hand: c gets its own queue, reusing
// its backing arrays, and its own copy of every task, and it keeps its
// own loop-skip scratch. Copying a core with no tasks allocates nothing,
// which is how the leakage-contract executor restores a pristine core
// before every secret arm. A closure cannot be copied, so CopyFrom
// panics on a task whose OnDone callback is still pending, leaving c
// partly copied; a pending measurement task (MeasureEnqueue) copies like
// any other, and the copy adds its reading to its own sums.
func (c *Core) CopyFrom(src *Core) {
	queue, snap := c.queue, c.snap
	*c = *src
	c.snap = snap
	for t := range 2 {
		if src.cur[t] != nil {
			c.cur[t] = cloneTask(src.cur[t])
		}
		// Dispatched entries ahead of qhead are nil.
		c.queue[t] = queue[t][:0]
		for _, task := range src.queue[t] {
			if task != nil {
				task = cloneTask(task)
			}
			c.queue[t] = append(c.queue[t], task)
		}
	}
}

// Clone returns a copy of the core: a new core with c's state copied in
// (see CopyFrom). The sweep engine clones cores at the quiescent point
// after a calibration preamble (always callback-free); the
// leakage-contract executor clones mid-stream.
func (c *Core) Clone() *Core {
	d := new(Core)
	d.CopyFrom(c)
	return d
}

// Bytes returns the memory a copy of c holds: the core itself, its tasks
// and its queues' backing arrays, but not the instructions its streams
// read, which copies share.
func (c *Core) Bytes() int {
	const task = int(unsafe.Sizeof(Task{}))
	n := int(unsafe.Sizeof(*c))
	for t := range 2 {
		n += cap(c.queue[t]) * int(unsafe.Sizeof(c))
		for _, q := range c.queue[t] {
			if q != nil {
				n += task
			}
		}
		if c.cur[t] != nil {
			n += task
		}
	}
	return n
}

// cloneTask copies a task's scalar state and rejects a task whose
// callback would dangle into the original core's world.
func cloneTask(t *Task) *Task {
	if t.OnDone != nil {
		panic("cpu: Clone with an in-flight callback-bearing task")
	}
	c := *t
	return &c
}
