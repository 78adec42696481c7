package cache

// CopyFrom overwrites c with a deep copy of src: identical geometry,
// contents, recency state and statistics. c's line array is reused, so
// copying between caches of one geometry allocates nothing.
func (c *Cache) CopyFrom(src *Cache) {
	lines := c.lines
	*c = *src
	c.lines = append(lines[:0], src.lines...)
}
