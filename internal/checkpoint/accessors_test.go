package checkpoint

// Accessors the package's tests use to inspect and edit a Context's
// registration and retention state.

// Unprotect removes a registered variable by name.
func (c *Context) Unprotect(name string) bool {
	for i := range c.protected {
		if c.protected[i].Name == name {
			c.protected = append(c.protected[:i], c.protected[i+1:]...)
			return true
		}
	}
	return false
}

// ProtectedVars returns the registered variables.
func (c *Context) ProtectedVars() []Protected {
	out := make([]Protected, len(c.protected))
	for i := range c.protected {
		out[i] = c.protected[i].Protected
	}
	return out
}

// Pruned returns the number of checkpoints deleted by the retention
// policy so far.
func (c *Context) Pruned() int { return c.pruned }
