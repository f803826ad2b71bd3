// Client is the remote side of the trace-ingest service. Requests go
// through the wire.Transport it shares with store.Remote: one keep-alive
// connection pool, bounded exponential backoff with a wall-clock budget,
// Retry-After hints honored, request bodies rebuilt per attempt. On top
// of the transport's retry loop, AnalyzeChunked adds session-level
// resumption: when the service restarts or the connection dies
// mid-stream, the client resynchronizes on the session's next expected
// sequence number (from the typed sequencing errors or a status probe)
// and continues — the service replays the acknowledged prefix from its
// store, so the final result is byte-identical to an uninterrupted run.
package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"autocheck/internal/admission"
	"autocheck/internal/core"
	"autocheck/internal/wire"
)

// DefaultChunkBytes is AnalyzeChunked's chunk size when the caller
// passes 0.
const DefaultChunkBytes = 256 << 10

// Client talks to a trace-ingest service.
type Client struct {
	// MaxAttempts, Backoff and MaxElapsed tune the per-request retry
	// loop; MaxElapsed also bounds AnalyzeChunked's session-level
	// resume loop across restarts.
	wire.Retry

	// Namespace is the tenant namespace requests are accounted to
	// ("default" when empty).
	Namespace string

	// ChunkDelay, when positive, pauses between AnalyzeChunked's chunk
	// uploads — a pacing knob for demos and restart smoke tests that
	// need a window to kill the service mid-stream.
	ChunkDelay time.Duration

	tr *wire.Transport
}

// NewClient returns a client for the service at addr (host:port or
// URL). It does not contact the service; a service still starting is
// absorbed by the first request's retry loop.
func NewClient(addr string) (*Client, error) {
	t, err := wire.New("analysis: service", addr, envelopeError)
	if err != nil {
		return nil, err
	}
	return &Client{Retry: wire.DefaultRetry(), Namespace: "default", tr: t}, nil
}

// SetAddr repoints the client (reconnect tests move a client between a
// killed service and its replacement; production clients follow a
// failover the same way). Sessions are service-side state recovered
// from the store, so an existing Session keeps working after the move.
func (c *Client) SetAddr(addr string) error { return c.tr.SetAddr(addr) }

// envelopeError decodes a typed error envelope, falling back to a
// generic Error for non-JSON failure bodies (the embedding server's own
// middleware answers some requests itself).
func envelopeError(status int, body []byte) error {
	var ae Error
	if json.Unmarshal(body, &ae) == nil && ae.Code != "" {
		ae.Status = status
		return &ae
	}
	code := CodeInvalidArgument
	switch {
	case status == http.StatusNotFound:
		code = CodeUnknownSession
	case wire.Transient(status):
		code = CodeUnavailable
	}
	return &Error{Status: status, Code: code, Message: strings.TrimSpace(string(body))}
}

// do performs one exchange through the transport's retry loop and
// returns the response body. Permanent failures come back as *Error.
// Every request carries the tenant namespace and its admission class so
// the embedding server's controller can account and order it.
func (c *Client) do(method, path string, body []byte, pri admission.Priority) ([]byte, error) {
	req := wire.Request{Method: method, Path: path, Tenant: c.ns(), Priority: pri}
	if body != nil {
		req.Body = [][]byte{body}
	}
	return c.tr.Do(c.Retry, req)
}

// Analyze runs the one-shot endpoint: the whole trace in one request.
func (c *Client) Analyze(data []byte, spec core.LoopSpec) (*core.Result, error) {
	path := fmt.Sprintf("/v1/analyze/%s?func=%s&start=%d&end=%d",
		url.PathEscape(c.ns()), url.QueryEscape(spec.Function), spec.StartLine, spec.EndLine)
	body, err := c.do(http.MethodPost, path, data, admission.Interactive)
	if err != nil {
		return nil, err
	}
	return decodeResult(body)
}

func (c *Client) ns() string {
	if c.Namespace == "" {
		return "default"
	}
	return c.Namespace
}

// Session is a client-side handle on one chunked ingest session.
type Session struct {
	ID string
	c  *Client
}

// NewSession creates a chunked session carrying spec.
func (c *Client) NewSession(spec core.LoopSpec) (*Session, error) {
	req, _ := json.Marshal(createRequest{
		Namespace: c.ns(), Function: spec.Function,
		StartLine: spec.StartLine, EndLine: spec.EndLine,
	})
	body, err := c.do(http.MethodPost, "/v1/sessions", req, admission.Interactive)
	if err != nil {
		return nil, err
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("analysis: decoding session: %w", err)
	}
	return &Session{ID: st.ID, c: c}, nil
}

// SendChunk uploads the chunk with the given sequence number.
// Sequencing violations return an *Error whose Expect field is the
// session's resume point.
func (s *Session) SendChunk(seq int, data []byte) error {
	// Chunk uploads are background streaming: they admit at the ingest
	// class so restart-path reads drain ahead of them under load.
	_, err := s.c.do(http.MethodPut,
		fmt.Sprintf("/v1/sessions/%s/chunks/%d", url.PathEscape(s.ID), seq), data,
		admission.Ingest)
	return err
}

// Status fetches the session's state and resume point.
func (s *Session) Status() (SessionStatus, error) {
	body, err := s.c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(s.ID), nil, admission.Interactive)
	if err != nil {
		return SessionStatus{}, err
	}
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return SessionStatus{}, fmt.Errorf("analysis: decoding status: %w", err)
	}
	return st, nil
}

// Finish closes the trace stream and returns the result.
func (s *Session) Finish() (*core.Result, error) {
	body, err := s.c.do(http.MethodPost,
		"/v1/sessions/"+url.PathEscape(s.ID)+"/finish", nil, admission.Interactive)
	if err != nil {
		return nil, err
	}
	return decodeResult(body)
}

// Delete purges the session service-side.
func (s *Session) Delete() error {
	_, err := s.c.do(http.MethodDelete, "/v1/sessions/"+url.PathEscape(s.ID), nil, admission.Interactive)
	return err
}

// AnalyzeChunked streams data through a chunked session in fixed-size
// chunks and returns the result. It survives service restarts and
// connection loss within the MaxElapsed budget: after a transport-level
// failure it resynchronizes on the session's next expected sequence
// number and resumes; duplicate acknowledgments (an ack lost in a
// crash) are skipped the same way.
func (c *Client) AnalyzeChunked(data []byte, spec core.LoopSpec, chunkBytes int) (*core.Result, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	sess, err := c.NewSession(spec)
	if err != nil {
		return nil, err
	}
	if err := c.streamChunks(sess, data, chunkBytes, 0); err != nil {
		return nil, err
	}
	return sess.Finish()
}

// streamChunks uploads data's fixed-size chunks starting at sequence
// number from, riding out transient failures with session-level resume.
func (c *Client) streamChunks(sess *Session, data []byte, chunkBytes, from int) error {
	sleep, now := c.tr.Clock()
	deadline := now().Add(c.Budget())
	wait := c.Backoff
	if wait <= 0 {
		wait = wire.DefaultBackoff
	}
	seq := from
	for seq*chunkBytes < len(data) {
		lo := seq * chunkBytes
		hi := min(lo+chunkBytes, len(data))
		err := sess.SendChunk(seq, data[lo:hi])
		if err == nil {
			seq++
			if c.ChunkDelay > 0 {
				sleep(c.ChunkDelay)
			}
			continue
		}
		var ae *Error
		if errors.As(err, &ae) {
			switch ae.Code {
			case CodeDuplicateChunk, CodeOutOfOrder:
				// The typed error carries the resume point directly.
				seq = ae.Expect
				continue
			}
			if !wire.Transient(ae.Status) {
				return err
			}
		}
		// Transport retry budget exhausted (service restarting, network
		// down): back off at the session level, then resync off a status
		// probe — the probe itself triggers service-side recovery.
		if now().After(deadline) {
			return err
		}
		sleep(wait)
		if wait *= 2; wait > time.Second {
			wait = time.Second
		}
		if st, serr := sess.Status(); serr == nil {
			seq = st.NextSeq
		}
	}
	return nil
}
