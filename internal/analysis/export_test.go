package analysis

import "time"

// SetClientClock installs test clock seams on c so the package's
// integration tests can compress retry backoffs and Retry-After waits.
func SetClientClock(c *Client, sleep func(time.Duration), now func() time.Time) {
	c.tr.SetClock(sleep, now)
}

// StreamChunks exposes the client's resumable chunk loop for tests that
// interleave it with service restarts.
func StreamChunks(c *Client, s *Session, data []byte, chunkBytes, from int) error {
	return c.streamChunks(s, data, chunkBytes, from)
}
