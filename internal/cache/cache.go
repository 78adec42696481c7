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

// Cache is a set-associative cache with true LRU replacement, of the L1
// geometry. It tracks only tags (no data); the simulator needs residency
// and recency, not contents. Each set holds its resident tags in recency
// order, so two caches that replace alike hold equal tags. A Cache is a
// value: its lines are held inline, so assigning one copies it, and the
// zero Cache is empty.
type Cache struct {
	// tags holds ways slots per set, set after set. Set i's resident
	// tags fill the first n[i] of its slots, most recently used first,
	// and its other slots are zero.
	tags  [sets * ways]uint64
	n     [sets]uint8
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

// set returns the resident tags of set i, most recently used first.
func (c *Cache) set(i int) []uint64 {
	return c.tags[i*ways : i*ways+int(c.n[i])]
}

// find returns addr's set, the tags it holds and addr's position among
// them, or -1 if addr is not resident.
func (c *Cache) find(addr uint64) (int, []uint64, int) {
	s, tag := c.Set(addr), c.Tag(addr)
	set := c.set(s)
	for i, t := range set {
		if t == tag {
			return s, set, i
		}
	}
	return s, set, -1
}

// Access looks addr up, fills on miss (evicting the least recently used
// line if the set is full), makes its line the most recently used and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	if c.Touch(addr) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	s := c.Set(addr)
	if c.n[s] == ways {
		c.stats.Evictions++ // the last line, the least recently used, makes room
	} else {
		c.n[s]++
	}
	set := c.set(s)
	set[len(set)-1] = c.Tag(addr)
	toFront(set, len(set)-1)
	return false
}

// Probe reports whether addr is resident without filling or updating
// recency and without counting an access. Attackers use Probe-like timing;
// the simulator's receivers use Access (which models the timed reload).
func (c *Cache) Probe(addr uint64) bool {
	_, _, i := c.find(addr)
	return i >= 0
}

// Touch makes addr's line the most recently used if resident (an
// LRU-state update with no fill), the primitive behind the L1D-LRU
// covert channel. It reports whether the line was resident.
func (c *Cache) Touch(addr uint64) bool {
	_, set, i := c.find(addr)
	if i < 0 {
		return false
	}
	toFront(set, i)
	return true
}

// toFront moves set[i] to the front of set, keeping the others' order.
func toFront(set []uint64, i int) {
	t := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = t
}

// FlushLine invalidates addr's line if resident (clflush).
func (c *Cache) FlushLine(addr uint64) {
	s, set, i := c.find(addr)
	if i < 0 {
		return
	}
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	c.n[s]--
	c.stats.Flushes++
}

// FlushAll invalidates the entire cache.
func (c *Cache) FlushAll() {
	for _, n := range c.n {
		c.stats.Flushes += uint64(n)
	}
	c.tags, c.n = [sets * ways]uint64{}, [sets]uint8{}
}

// OccupiedWays returns how many valid lines addr's set holds.
func (c *Cache) OccupiedWays(addr uint64) int {
	return int(c.n[c.Set(addr)])
}
