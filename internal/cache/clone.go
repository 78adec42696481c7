package cache

// Recurs reports whether c, a copy of prev some accesses later, holds
// the same lines in every set in the same recency order. Replacement
// reads only that order, so from here c evicts exactly as prev did.
func (c *Cache) Recurs(prev *Cache) bool {
	return c.n == prev.n && c.tags == prev.tags
}

// Advance moves a cache that Recurs from prev forward by k more
// repetitions of the accesses since prev. Its lines are where they
// were, so only the statistics move: they grow by k more times their
// growth.
func (c *Cache) Advance(prev *Cache, k uint64) {
	c.stats.Hits += k * (c.stats.Hits - prev.stats.Hits)
	c.stats.Misses += k * (c.stats.Misses - prev.stats.Misses)
	c.stats.Evictions += k * (c.stats.Evictions - prev.stats.Evictions)
	c.stats.Flushes += k * (c.stats.Flushes - prev.stats.Flushes)
}
