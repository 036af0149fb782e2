package devolve

// Generation returns the newest policy generation seen (ok=false before
// any push), for the package's external tests.
func (c *Cache) Generation() (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen, c.genSeen
}
