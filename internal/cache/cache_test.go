package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func l1() *Cache { return New(L1Config) }

func TestL1Geometry(t *testing.T) {
	if L1Config.Size() != 32*1024 {
		t.Errorf("L1 size = %d, want 32768 (Table I: 32KB)", L1Config.Size())
	}
}

func TestMissThenHit(t *testing.T) {
	c := l1()
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := l1()
	c.Access(0x1000)
	if !c.Access(0x103F) {
		t.Error("access within same 64B line should hit")
	}
}

func TestSetIndexing(t *testing.T) {
	c := l1()
	// Addresses 64*64 = 4096 bytes apart share a set.
	if c.Set(0x0) != c.Set(0x1000) {
		t.Error("addresses 4096 apart should share an L1 set")
	}
	if c.Set(0x0) == c.Set(0x40) {
		t.Error("adjacent lines should differ in set")
	}
}

func TestLRUEviction(t *testing.T) {
	c := l1()
	base := uint64(0x10000)
	stride := uint64(sets * lineSize)
	// Fill all 8 ways of one set.
	for w := uint64(0); w < 8; w++ {
		c.Access(base + w*stride)
	}
	// Re-touch way 0 so way 1 becomes LRU.
	c.Access(base)
	// Insert a 9th line: way 1 must be evicted, way 0 must survive.
	c.Access(base + 8*stride)
	if !c.Probe(base) {
		t.Error("MRU-refreshed line was evicted")
	}
	if c.Probe(base + 1*stride) {
		t.Error("LRU line survived eviction")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
}

func TestEightWaysFitWithoutEviction(t *testing.T) {
	// The paper's Figure 3 argument: 8 blocks mapping to one set fit the
	// 8 ways with no eviction.
	c := l1()
	stride := uint64(sets * lineSize)
	for w := uint64(0); w < 8; w++ {
		c.Access(0x2000 + w*stride)
	}
	for w := uint64(0); w < 8; w++ {
		if !c.Probe(0x2000 + w*stride) {
			t.Fatalf("way %d missing after filling exactly 8 ways", w)
		}
	}
	if c.Stats().Evictions != 0 {
		t.Error("filling 8 ways must not evict")
	}
}

func TestProbeDoesNotFill(t *testing.T) {
	c := l1()
	if c.Probe(0x5000) {
		t.Error("probe of empty cache hit")
	}
	if c.Probe(0x5000) {
		t.Error("probe must not fill")
	}
	if c.Stats().Accesses() != 0 {
		t.Error("probe must not count as access")
	}
}

func TestTouch(t *testing.T) {
	c := l1()
	if c.Touch(0x1000) {
		t.Error("touch of absent line reported resident")
	}
	c.Access(0x1000)
	if !c.Touch(0x1000) {
		t.Error("touch of resident line failed")
	}
	// Touch must refresh LRU: fill set, touch oldest, check survival.
	stride := uint64(sets * lineSize)
	for w := uint64(1); w < 8; w++ {
		c.Access(0x1000 + w*stride)
	}
	c.Touch(0x1000) // 0x1000 is oldest by fill order; refresh it
	c.Access(0x1000 + 8*stride)
	if !c.Probe(0x1000) {
		t.Error("touched line should have been MRU and survive")
	}
}

func TestFlushLine(t *testing.T) {
	c := l1()
	c.Access(0x3000)
	c.FlushLine(0x3000)
	if c.Probe(0x3000) {
		t.Error("flushed line still resident")
	}
	if c.Stats().Flushes != 1 {
		t.Errorf("flushes = %d, want 1", c.Stats().Flushes)
	}
	// Flushing an absent line is a no-op.
	c.FlushLine(0x9999000)
	if c.Stats().Flushes != 1 {
		t.Error("flush of absent line counted")
	}
}

func TestFlushAll(t *testing.T) {
	c := l1()
	for i := uint64(0); i < 100; i++ {
		c.Access(i * 64)
	}
	c.FlushAll()
	for i := uint64(0); i < 100; i++ {
		if c.Probe(i * 64) {
			t.Fatalf("line %d survived FlushAll", i)
		}
	}
}

func TestMissRate(t *testing.T) {
	c := l1()
	c.Access(0x1000) // miss
	c.Access(0x1000) // hit
	c.Access(0x1000) // hit
	c.Access(0x2000) // miss
	if got := c.Stats().MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}

func TestResetStats(t *testing.T) {
	c := l1()
	c.Access(0x1000)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("stats not reset")
	}
	if !c.Probe(0x1000) {
		t.Error("ResetStats must not flush contents")
	}
}

func TestOccupiedWays(t *testing.T) {
	c := l1()
	stride := uint64(sets * lineSize)
	for w := uint64(0); w < 5; w++ {
		c.Access(0x1000 + w*stride)
	}
	if got := c.OccupiedWays(0x1000); got != 5 {
		t.Errorf("occupied = %d, want 5", got)
	}
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 0, Ways: 8, LineSize: 64},
		{Sets: 63, Ways: 8, LineSize: 64},
		{Sets: 64, Ways: 8, LineSize: 60},
		{Sets: 32, Ways: 8, LineSize: 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAccessIdempotentResidency(t *testing.T) {
	// Property: after Access(a), Probe(a) always holds.
	f := func(addrs []uint64) bool {
		c := l1()
		for _, a := range addrs {
			c.Access(a)
			if !c.Probe(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvariantOccupancyBounded(t *testing.T) {
	// Property: no set ever exceeds its way count.
	f := func(addrs []uint64) bool {
		c := l1()
		for _, a := range addrs {
			c.Access(a)
			if c.OccupiedWays(a) > c.Config().Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRecursAndAdvance pins the steady-loop skip's cache helpers on a
// period that cycles nine lines through one 8-way set, so every line of
// the set is evicted and refilled each period; it also flushes and
// refills one line. A set holds its lines in recency order, so the
// thrashed set recurs after one period; any changed tag, dropped line
// or swapped order breaks the recurrence, and Advance lands where
// running the periods does.
func TestRecursAndAdvance(t *testing.T) {
	c := l1()
	stride := uint64(sets * lineSize)
	period := func(c *Cache) {
		for i := range uint64(9) {
			c.Access(0x1000 + i*stride)
		}
		c.FlushLine(0x2040)
		c.Access(0x2040)
		c.Access(0x3080)
	}
	period(c)
	prev := *c
	period(c)
	if !c.Recurs(&prev) {
		t.Fatal("does not recur after one period")
	}
	if c.stats.Evictions-prev.stats.Evictions != 9 {
		t.Fatalf("a period evicted %d lines, want 9", c.stats.Evictions-prev.stats.Evictions)
	}
	lines := func(x *Cache) []uint64 { return x.set(x.Set(0x1000)) }
	for name, change := range map[string]func(x *Cache){
		"tag":          func(x *Cache) { lines(x)[0]++ },
		"dropped line": func(x *Cache) { x.FlushLine(0x2040) },
		"order": func(x *Cache) {
			l := lines(x)
			l[0], l[1] = l[1], l[0]
		},
	} {
		x := *c
		change(&x)
		if x.Recurs(&prev) {
			t.Errorf("%s: still recurs", name)
		}
	}
	want := *c
	for range 3 {
		period(&want)
	}
	c.Advance(&prev, 3)
	if !reflect.DeepEqual(*c, want) {
		t.Fatalf("advanced %+v\nstepping gives %+v", c.stats, want.stats)
	}
}
