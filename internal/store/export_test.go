package store

// flightWaiters reports how many followers have joined the in-flight
// read of key (0 when there is none). A follower counted here holds the
// flight and takes its result whenever the leader finishes, so a test
// that waits for the count can release the leader without racing
// readers that were not scheduled yet.
func (c *Cached) flightWaiters(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if call, ok := c.flight[key]; ok {
		return call.waiters
	}
	return 0
}

// cachedBlob returns the cache's entry for key, nil when there is none.
func (c *Cached) cachedBlob(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).blob
	}
	return nil
}
