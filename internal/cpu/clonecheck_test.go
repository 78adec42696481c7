package cpu

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/clonecheck"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/power"
)

// allowShared lists the data that is immutable after construction and
// deliberately shared between a core and its clone: decoded instruction
// slices and block layouts.
func allowShared() clonecheck.Option {
	return clonecheck.AllowType(isa.Inst{}, isa.Block{})
}

// requireFaithfulCopy fails unless dup holds exactly orig's state and
// shares none of its mutable memory.
func requireFaithfulCopy(t *testing.T, orig, dup *Core) {
	t.Helper()
	if diff := clonecheck.Diff(orig, dup); len(diff) != 0 {
		t.Fatalf("copy differs from its original:\n%s", strings.Join(diff, "\n"))
	}
	if shared := clonecheck.Shared(orig, dup, allowShared()); len(shared) != 0 {
		t.Fatalf("copy shares mutable state:\n%s", strings.Join(shared, "\n"))
	}
}

// TestCloneSharesNoMutableState walks the full object graphs of a core
// and its clone with reflection. The clone must hold equal state, and
// any pointer, slice backing array, map, or channel reachable from both
// is a field some clone.go forgot — the kind of staleness that silently
// corrupts calibration memoization when a struct grows a field.
func TestCloneSharesNoMutableState(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		c := NewCore(Gold6226(), 1)
		// Exercise the machine so every lazily-grown structure exists.
		blocks := isa.MixChain(3, 4, true)
		c.Enqueue(0, isa.NewLoopStream(blocks, 50), nil)
		c.RunUntilIdle(1_000_000)
		requireFaithfulCopy(t, c, c.Clone())
	})

	t.Run("mid-stream", func(t *testing.T) {
		c := NewCore(Gold6226(), 1)
		blocks := isa.MixChain(3, 4, true)
		c.Enqueue(0, isa.NewLoopStream(blocks, 200), nil)
		c.Enqueue(0, isa.NewLoopStream(blocks, 10), nil) // still queued
		c.RunCycles(100)
		if c.Idle() {
			t.Fatal("core drained before the mid-stream snapshot")
		}
		requireFaithfulCopy(t, c, c.Clone())
	})

	t.Run("dirty", func(t *testing.T) {
		c := dirtyCore(t, Gold6226())
		requireFaithfulCopy(t, c, c.Clone())
	})
}

// dirtyCore returns a core of model m that has been through every kind
// of state the simulator keeps, left mid-run: a DSB that evicted and
// that partitioned while both threads ran, LSD locks, a trained branch
// predictor, a filled switch buffer, L1I and L1D lines, TSC and RNG
// draws, accrued energy and RAPL reads, misalignment poison, a loop the
// steady-loop skip fast-forwarded, which leaves the core its snapshot
// buffer, a MITE fetch-slot hold, a finished measurement in thread 0's
// sums, a half-dispatched task queue on thread 0 whose dispatched task
// is a measurement in flight, and micro-ops left in thread 1's IDQ by
// AbortThread(1).
func dirtyCore(t testing.TB, m Model) *Core {
	t.Helper()
	c := NewCore(m, 7)
	c.MeasureEnqueue(0, isa.NewLoopStream(isa.MixChain(4, 3, true), 10))
	c.RunTimed(0, isa.NewLoopStream(isa.MixChain(3, 2, true), 40))
	skips := loopSkips.Load()
	c.RunTimed(0, isa.NewLoopStream(isa.MixChain(7, 6, true), 3000))
	c.RunTimed(0, isa.NewLoopStream(isa.MixChain(5, 6, false), 20))
	c.RunTimed(0, isa.NewLoopStream(isa.MixChain(12, 10, true), 4)) // overflows a DSB set
	lcp := []*isa.Block{isa.LCPBlock(isa.AddrForSet(6, 4), 14, true)}
	isa.ChainLoop(lcp)
	c.RunTimed(0, isa.NewLoopStream(lcp, 10))
	loads := []*isa.Block{isa.LoadBlock(isa.AddrForSet(11, 1), []uint64{0x10000, 0x20040, 0x30080})}
	isa.ChainLoop(loads)
	c.RunTimed(0, isa.NewLoopStream(loads, 5))
	c.PM.RAPLRead()

	// Thread 1 decodes dense nops through MITE, which holds the fetch
	// slot and outpaces retirement; thread 0 works through a queue.
	nops := []*isa.Block{isa.NopBlockLen(isa.AddrForSet(20, 2), 24, 1)}
	isa.ChainLoop(nops)
	c.Enqueue(1, isa.NewLoopStream(nops, 1000), nil)
	c.MeasureEnqueue(0, isa.NewLoopStream(isa.MixChain(9, 4, true), 300))
	c.Enqueue(0, isa.NewLoopStream(isa.MixChain(9, 4, false), 300), nil)
	c.Enqueue(0, isa.NewLoopStream(isa.MixChain(9, 4, true), 300), nil)
	for i := 0; i < 20_000 && (c.qhead[0] == 0 || c.miteHold < 0 || c.FE.IDQLen(1) == 0); i++ {
		c.Step()
	}
	c.AbortThread(1)

	switch {
	case c.FE.DSB.Stats().Partitions == 0 || c.FE.DSB.Stats().Evictions == 0:
		t.Fatal("DSB never partitioned or evicted")
	case c.FE.LSDFor(0).Locks() == 0:
		t.Fatal("LSD never locked")
	case c.FE.BPU[0].Stats().Lookups == 0:
		t.Fatal("branch predictor untrained")
	case c.FE.SwitchBufferStats().Inserts == 0:
		t.Fatal("switch buffer empty")
	case c.FE.L1I.Stats() == (cache.Stats{}) || c.L1D.Stats() == (cache.Stats{}):
		t.Fatal("an L1 cache was never accessed")
	case c.FE.Align().Level() == 0:
		t.Fatal("no misalignment poison")
	case loopSkips.Load() == skips || cap(c.snap) == 0:
		t.Fatal("no loop was skipped")
	case c.qhead[0] == 0 || c.miteHold < 0 || c.FE.IDQLen(1) == 0:
		t.Fatalf("qhead %d, miteHold %d, thread 1 IDQ %d", c.qhead[0], c.miteHold, c.FE.IDQLen(1))
	case c.measN[0] == 0 || c.cur[0] == nil || !c.cur[0].measure:
		t.Fatal("no finished measurement, or none in flight")
	}
	return c
}

// TestCopyFromRestoresFreshCore copies a new core over a dirty one, in
// place, and requires the dirty core's whole reachable state to equal
// the new core's: every field some CopyFrom forgets keeps its dirt and
// fails here. The leakage-contract executor relies on this to restore a
// pristine core before every secret arm. One dirty core is of a variant
// model, so the model and its parameters must be copied too.
func TestCopyFromRestoresFreshCore(t *testing.T) {
	variant := Gold6226()
	variant.Name = "variant"
	variant.FE.IDQCapacity = 48
	variant.BE.Ports = 6
	variant.PW = power.DefaultParams(3.1)
	variant.TimerSigmaAbs = 9
	for _, m := range []Model{Gold6226(), variant} {
		t.Run(m.Name, func(t *testing.T) {
			c := dirtyCore(t, m)
			fresh := NewCore(Gold6226(), 1)
			c.CopyFrom(fresh)
			requireFaithfulCopy(t, fresh, c)
			// Running the copy must leave its source pristine, which also
			// catches buffers the allow-list lets Shared overlook (the IDQs
			// hold isa.Inst values too).
			c.RunTimed(0, isa.NewLoopStream(isa.MixChain(4, 6, true), 20))
			if diff := clonecheck.Diff(NewCore(Gold6226(), 1), fresh); len(diff) != 0 {
				t.Fatalf("running the copy changed its source:\n%s", strings.Join(diff, "\n"))
			}
			// Restoring an idle core of the same model reuses every buffer.
			if allocs := testing.AllocsPerRun(5, func() { c.CopyFrom(fresh) }); allocs != 0 {
				t.Fatalf("CopyFrom of an idle core allocates %.0f times", allocs)
			}
		})
	}
}

// TestCoreIsAValue walks the type of Core and fails on every field
// through which an assignment of one core to another would share
// mutable state or a closure over the original: a func, map or chan
// anywhere, and a pointer, slice or interface outside the allow-list.
// The list names fields: the instruction bodies and programs streams
// read, which are never written; the tasks and their queue, which
// CopyFrom copies; and the scratch a copy keeps as its own, which holds
// nothing between run loop calls.
func TestCoreIsAValue(t *testing.T) {
	type field struct {
		in   reflect.Type
		name string
	}
	allowed := map[field]bool{
		{reflect.TypeFor[isa.Piece](), "Body"}:        true,
		{reflect.TypeFor[isa.SeqStream](), "prog"}:    true,
		{reflect.TypeFor[Core](), "queue"}:            true,
		{reflect.TypeFor[Core](), "cur"}:              true,
		{reflect.TypeFor[Core](), "snap"}:             true,
		{reflect.TypeFor[frontend.Frontend](), "log"}: true,
	}
	var shared []string
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Func, reflect.Map, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			shared = append(shared, path+" "+typ.String())
		case reflect.Pointer, reflect.Slice:
			shared = append(shared, path+" "+typ.String())
			if !seen[typ] {
				// What the reference reaches is listed too.
				seen[typ] = true
				walk(typ.Elem(), path+"[]")
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := range typ.NumField() {
				if f := typ.Field(i); !allowed[field{typ, f.Name}] {
					walk(f.Type, path+"."+f.Name)
				}
			}
		}
	}
	walk(reflect.TypeFor[Core](), "Core")
	if len(shared) != 0 {
		t.Fatalf("an assignment of a core shares:\n%s", strings.Join(shared, "\n"))
	}
}

// TestConcurrentCopiesShareNothing runs two copies of a dirty core at
// once, one a Clone and one copied over a core that has run loops of its
// own, and requires each to end in the state a lone copy reaches. Under
// the race detector, any backing array or scratch buffer a copy still
// shares with another shows up as a race.
func TestConcurrentCopiesShareNothing(t *testing.T) {
	src := dirtyCore(t, Gold6226())
	work := func(c *Core) {
		c.RunUntilIdle(10_000_000)
		c.Enqueue(1, isa.NewLoopStream(isa.MixChain(20, 6, true), 200), nil)
		c.RunTimed(0, isa.NewLoopStream(isa.MixChain(12, 10, true), 300))
		c.RunTimed(0, isa.NewLoopStream(isa.MixChain(3, 8, true), 3000))
	}
	lone := src.Clone()
	skips := loopSkips.Load()
	work(lone)
	if loopSkips.Load() == skips || lone.FE.DSB.Stats().Partitions == src.FE.DSB.Stats().Partitions {
		t.Fatal("the work did not both skip a loop and partition the DSB")
	}
	used := NewCore(Gold6226(), 2)
	work(used)
	used.CopyFrom(src)
	copies := []*Core{src.Clone(), used}
	var wg sync.WaitGroup
	for _, c := range copies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(c)
		}()
	}
	wg.Wait()
	for i, c := range copies {
		if diff := clonecheck.Diff(lone, c); len(diff) != 0 {
			t.Fatalf("copy %d run beside another differs from a lone copy:\n%s", i, strings.Join(diff, "\n"))
		}
	}
}

// TestCloneMidStreamReplaysIdentically pins that a core cloned with
// in-flight work replays byte-for-byte: same cycle counts, same
// counters, same retirement totals.
func TestCloneMidStreamReplaysIdentically(t *testing.T) {
	c := NewCore(Gold6226(), 1)
	blocks := isa.MixChain(5, 6, true)
	c.Enqueue(0, isa.NewLoopStream(blocks, 300), nil)
	c.Enqueue(0, isa.NewLoopStream(blocks, 20), nil)
	c.RunCycles(137)
	if c.Idle() {
		t.Fatal("core drained before the mid-stream snapshot")
	}
	d := c.Clone()

	c.RunUntilIdle(10_000_000)
	d.RunUntilIdle(10_000_000)

	if c.Cycle() != d.Cycle() {
		t.Fatalf("cycle divergence: original %d, clone %d", c.Cycle(), d.Cycle())
	}
	if c.Retired(0) != d.Retired(0) {
		t.Fatalf("retired divergence: original %d, clone %d", c.Retired(0), d.Retired(0))
	}
	if c.Counters(0) != d.Counters(0) {
		t.Fatalf("counter divergence:\noriginal %+v\nclone    %+v", c.Counters(0), d.Counters(0))
	}
	if co, cl := c.FE.SwitchBufferStats(), d.FE.SwitchBufferStats(); co != cl {
		t.Fatalf("switch-buffer stats divergence:\noriginal %+v\nclone    %+v", co, cl)
	}
}

// TestCloneRejectsCallbackTasks pins that cloning a core with a pending
// completion callback panics instead of silently dropping the callback.
func TestCloneRejectsCallbackTasks(t *testing.T) {
	c := NewCore(Gold6226(), 1)
	blocks := isa.MixChain(3, 4, true)
	c.Enqueue(0, isa.NewLoopStream(blocks, 100), func(start, end uint64) {})
	c.RunCycles(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Clone with a callback-bearing in-flight task did not panic")
		}
	}()
	c.Clone()
}
