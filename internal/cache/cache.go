// Package cache implements the set-associative caches the paper's
// machines carry (Table I): a 32 KB, 8-way, 64-byte-line L1 instruction
// cache with 64 sets, and an identically shaped L1 data cache. True LRU
// replacement is modelled because the L1D-LRU covert channel (one of the
// Table VII baselines) communicates through LRU state alone, and because
// the paper's central stealth claim — that frontend attacks cause *no* L1
// misses — is verified against these counters.
package cache

import "fmt"

// Config describes a cache's geometry.
type Config struct {
	Sets     int
	Ways     int
	LineSize int // bytes
}

// The L1 geometry, the only one a Cache takes.
const (
	sets     = 64
	ways     = 8
	lineSize = 64
)

// L1Config is the L1 configuration shared by every CPU model in Table I:
// 32 KB, 8-way, 64-byte lines, 64 sets.
var L1Config = Config{Sets: sets, Ways: ways, LineSize: lineSize}

// Size returns the total capacity in bytes.
func (c Config) Size() int { return c.Sets * c.Ways * c.LineSize }

// Stats counts cache events since the last Reset.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 when there were no accesses.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative cache with true LRU replacement, of the L1
// geometry. It tracks only tags (no data); the simulator needs residency
// and recency, not contents. A Cache is a value: its lines are held
// inline, so assigning one copies it, and the zero Cache is empty.
type Cache struct {
	lines [sets * ways]line // row-major by set
	tick  uint64
	stats Stats
}

// New builds an empty cache with the given geometry, which must be
// L1Config's: it panics on any other.
func New(cfg Config) *Cache {
	if cfg != (Config{Sets: sets, Ways: ways, LineSize: lineSize}) {
		panic(fmt.Sprintf("cache: geometry %+v is not the L1's %d sets, %d ways, %d-byte lines", cfg, sets, ways, lineSize))
	}
	return &Cache{}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return Config{Sets: sets, Ways: ways, LineSize: lineSize} }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Set returns the set index for addr.
func (c *Cache) Set(addr uint64) int {
	return int(addr/lineSize) & (sets - 1)
}

// Tag returns the tag for addr.
func (c *Cache) Tag(addr uint64) uint64 {
	return addr / lineSize / sets
}

func (c *Cache) set(idx int) []line {
	return c.lines[idx*ways : (idx+1)*ways]
}

// Access looks addr up, fills on miss (evicting the LRU way if the set is
// full), updates recency, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	setIdx, tag := c.Set(addr), c.Tag(addr)
	set := c.set(setIdx)
	victim := -1
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			c.stats.Hits++
			return true
		}
		switch {
		case victim >= 0 && !set[victim].valid:
			// Already found a free way; keep the first one.
		case !set[i].valid:
			victim = i
		case victim < 0 || set[i].lru < set[victim].lru:
			victim = i
		}
	}
	c.stats.Misses++
	if set[victim].valid {
		c.stats.Evictions++
	}
	set[victim] = line{tag: tag, valid: true, lru: c.tick}
	return false
}

// Probe reports whether addr is resident without filling or updating
// recency and without counting an access. Attackers use Probe-like timing;
// the simulator's receivers use Access (which models the timed reload).
func (c *Cache) Probe(addr uint64) bool {
	setIdx, tag := c.Set(addr), c.Tag(addr)
	for _, l := range c.set(setIdx) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch updates the recency of addr if resident (an LRU-state update with
// no fill), the primitive behind the L1D-LRU covert channel. It reports
// whether the line was resident.
func (c *Cache) Touch(addr uint64) bool {
	c.tick++
	setIdx, tag := c.Set(addr), c.Tag(addr)
	set := c.set(setIdx)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			return true
		}
	}
	return false
}

// LRUWay returns the way index that would be evicted next in addr's set,
// or -1 if the set has an invalid (free) way.
func (c *Cache) LRUWay(addr uint64) int {
	set := c.set(c.Set(addr))
	victim := -1
	for i := range set {
		if !set[i].valid {
			return -1
		}
		if victim < 0 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	return victim
}

// FlushLine invalidates addr's line if resident (clflush).
func (c *Cache) FlushLine(addr uint64) {
	setIdx, tag := c.Set(addr), c.Tag(addr)
	set := c.set(setIdx)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			c.stats.Flushes++
			return
		}
	}
}

// FlushAll invalidates the entire cache.
func (c *Cache) FlushAll() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.lines[i].valid = false
			c.stats.Flushes++
		}
	}
}

// OccupiedWays returns how many valid lines addr's set holds.
func (c *Cache) OccupiedWays(addr uint64) int {
	n := 0
	for _, l := range c.set(c.Set(addr)) {
		if l.valid {
			n++
		}
	}
	return n
}
