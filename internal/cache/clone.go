package cache

// Recurs reports whether c, a copy of prev some accesses later, holds
// the same lines in the same ways, with the valid lines of every set in
// the same recency order. Replacement reads only that order, so from
// here c evicts exactly as prev did.
func (c *Cache) Recurs(prev *Cache) bool {
	for s := range sets {
		a, b := c.set(s), prev.set(s)
		same := true
		for i := range a {
			if a[i].tag != b[i].tag || a[i].valid != b[i].valid {
				return false
			}
			same = same && a[i].lru == b[i].lru
		}
		if same {
			continue
		}
		for i := range a {
			for j := i + 1; j < len(a); j++ {
				if a[i].valid && a[j].valid && (a[i].lru < a[j].lru) != (b[i].lru < b[j].lru) {
					return false
				}
			}
		}
	}
	return true
}

// Advance moves a cache that Recurs from prev forward by k more
// repetitions of the accesses since prev. Each repetition touches the
// same lines at the same offsets, so every recency tick written since
// prev, and the tick counter itself, moves by k times the ticks that
// passed, and the statistics grow by k more times their growth.
func (c *Cache) Advance(prev *Cache, k uint64) {
	d := k * (c.tick - prev.tick)
	for i := range c.lines {
		if c.lines[i].lru > prev.tick {
			c.lines[i].lru += d
		}
	}
	c.tick += d
	c.stats.Hits += k * (c.stats.Hits - prev.stats.Hits)
	c.stats.Misses += k * (c.stats.Misses - prev.stats.Misses)
	c.stats.Evictions += k * (c.stats.Evictions - prev.stats.Evictions)
	c.stats.Flushes += k * (c.stats.Flushes - prev.stats.Flushes)
}
