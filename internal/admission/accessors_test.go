package admission

// Accessors the package's tests use to observe a Controller's state.

// Sessions reports the tenant's live lease count (test observability).
func (c *Controller) Sessions(tenant string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts := c.tenants[tenant]; ts != nil {
		return ts.live
	}
	return 0
}

// Queued reports how many acquires are parked across all tenants.
func (c *Controller) Queued() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queuedTotal
}

// InUse reports the granted admission count (test observability).
func (c *Controller) InUse() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse
}

// Draining reports drain mode.
func (c *Controller) Draining() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}
