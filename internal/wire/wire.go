// Package wire is the one retrying HTTP transport behind the repo's two
// service clients, store.Remote (checkpoint objects) and analysis.Client
// (trace ingest). It owns the policy both must agree on: which failures
// are transient, how long to wait between attempts, how a Retry-After
// hint overrides that wait, when the wall-clock budget ends the
// operation, which admission headers every request carries, and how the
// connection pool is sized. A client keeps only what is its own — paths,
// codecs, and the mapping from a status and body to its typed error.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"autocheck/internal/admission"
	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// Retry defaults: 4 attempts, 25ms first backoff (25+50+100 ms of waiting
// before the last try), 15s total wall-clock per operation.
const (
	DefaultAttempts   = 4
	DefaultBackoff    = 25 * time.Millisecond
	DefaultMaxElapsed = 15 * time.Second
)

// Retry tunes one client's retry loop; both clients embed it, so the
// fields are set as r.MaxAttempts etc. They may be adjusted before the
// first request; the defaults suit a LAN service.
type Retry struct {
	// MaxAttempts is the total number of tries and Backoff the first
	// retry's delay, doubling per attempt. MaxElapsed caps one operation's
	// total wall-clock across all attempts and waits, so a Retry-After
	// storm cannot pin a client indefinitely.
	MaxAttempts int
	Backoff     time.Duration
	MaxElapsed  time.Duration
}

// DefaultRetry returns the defaults above.
func DefaultRetry() Retry {
	return Retry{MaxAttempts: DefaultAttempts, Backoff: DefaultBackoff, MaxElapsed: DefaultMaxElapsed}
}

// Budget is the wall-clock cap in force: MaxElapsed, or the default when
// it is unset.
func (r Retry) Budget() time.Duration {
	if r.MaxElapsed <= 0 {
		return DefaultMaxElapsed
	}
	return r.MaxElapsed
}

// Transient reports whether a response status may be retried: 5xx
// (including the service's load-shed 503s) and 429, whichever layer — the
// admission controller or a fronting proxy — sent it. Every other status
// is the service's final answer.
func Transient(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// ErrUnavailable marks an endpoint-down failure: the TCP dial itself was
// refused or unroutable, as opposed to a connected service misbehaving.
// Only surfaced for a Request with FailFastDial set.
var ErrUnavailable = errors.New("endpoint unavailable")

// Transport is a pooled keep-alive HTTP client plus the retry policy.
// Every response body is fully drained so connections are recycled.
type Transport struct {
	// Faults, when set, is evaluated at Site before each attempt; an
	// injected error is a transient network failure that costs the
	// attempt.
	Faults *faultinject.Registry
	Site   string

	// Per-attempt telemetry, all optional: each HTTP exchange's latency
	// (waits excluded) lands in AttemptLat, and attempts beyond an
	// operation's first count in Retries.
	AttemptLat *obs.Histogram
	Retries    *obs.Counter

	name      string // error prefix, e.g. "store: remote service"
	base      string // scheme://host[:port][/path], no trailing slash
	client    *http.Client
	statusErr func(status int, body []byte) error

	// Test seams for the retry loop's clock; nil means the real one.
	sleep func(time.Duration)
	now   func() time.Time
}

// New returns a transport for the service at addr (host:port or full
// URL). name prefixes the transport's own error texts; statusErr maps a
// non-2xx response to the client's typed error, which is returned as-is
// when the status is final and wrapped by the budget error when it is
// not. New does not contact the service: one that is still starting up is
// absorbed by the first request's retry loop.
func New(name, addr string, statusErr func(status int, body []byte) error) (*Transport, error) {
	t := &Transport{
		name:      name,
		statusErr: statusErr,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
			Timeout: 2 * time.Minute,
		},
	}
	if err := t.SetAddr(addr); err != nil {
		return nil, err
	}
	return t, nil
}

// SetAddr repoints the transport at another service address.
func (t *Transport) SetAddr(addr string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return fmt.Errorf("%s: address: %w", t.name, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("%s: address %q: unsupported scheme %q", t.name, addr, u.Scheme)
	}
	t.base = strings.TrimSuffix(u.String(), "/")
	return nil
}

// Close releases pooled connections.
func (t *Transport) Close() { t.client.CloseIdleConnections() }

// SetClock installs test seams for the retry loop's clock; a nil
// argument keeps the real one.
func (t *Transport) SetClock(sleep func(time.Duration), now func() time.Time) {
	t.sleep, t.now = sleep, now
}

// Clock returns the sleep and now functions in force, for a client loop
// that must wait on the same clock the retry loop does.
func (t *Transport) Clock() (func(time.Duration), func() time.Time) {
	sleep, now := t.sleep, t.now
	if sleep == nil {
		sleep = time.Sleep
	}
	if now == nil {
		now = time.Now
	}
	return sleep, now
}

// parseRetryAfter interprets a Retry-After header value — delay-seconds
// or an HTTP-date — as a wait duration. ok distinguishes an explicit
// "retry immediately" hint (0, true) from an absent or unparseable
// header (0, false).
func parseRetryAfter(v string, now time.Time) (_ time.Duration, ok bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		d := at.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Request is one operation: Path is appended to the transport's base,
// Tenant and Priority are stamped as the admission headers the service's
// controller accounts and orders by (old servers ignore them).
type Request struct {
	Method   string
	Path     string
	Body     [][]byte // the body's pieces, sent back to back; nil for none
	Tenant   string
	Priority admission.Priority

	// FailFastDial makes a dial-level failure (connection refused, no
	// route) final instead of retried; the error wraps ErrUnavailable.
	FailFastDial bool
}

// Do performs one HTTP exchange with bounded retry/backoff, returning the
// response body. Every attempt reads req.Body's pieces afresh, through a
// reader of its own (a reader consumed by a failed send is never reused),
// and GetBody replays the same pieces so the HTTP client can resend them
// inside one attempt too; the pieces are read, never copied or written. A
// transient response carrying Retry-After overrides the next backoff wait
// with the server's hint. Total wall-clock — waits included — is capped by
// the budget: a wait that would overrun it is not taken and the operation
// fails with an error wrapping the last one.
func (t *Transport) Do(retry Retry, req Request) ([]byte, error) {
	attempts := max(retry.MaxAttempts, 1)
	budget := retry.Budget()
	sleep, now := t.Clock()
	start := now()
	backoff := retry.Backoff
	var lastErr error
	var hint time.Duration // Retry-After from the previous attempt
	var hinted bool        // set even for an explicit "retry now" (0s) hint
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wait := backoff
			backoff *= 2
			if hinted {
				wait = hint
			}
			if elapsed := now().Sub(start); elapsed+wait > budget {
				return nil, fmt.Errorf("%s: retry budget %v exhausted after %v (%d attempts): %w",
					t.name, budget, elapsed, attempt, lastErr)
			}
			if wait > 0 {
				sleep(wait)
			}
			t.Retries.Inc()
		}
		var t0 time.Time
		if t.AttemptLat != nil {
			t0 = time.Now()
		}
		var data []byte
		var done bool
		var err error
		data, done, hint, hinted, err = t.attempt(req, now)
		if t.AttemptLat != nil {
			t.AttemptLat.ObserveSince(t0)
		}
		if done {
			return data, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// attempt performs one HTTP exchange. done reports that the retry loop
// must stop and return (data, err) as the operation's final answer; a
// transient failure returns done=false with the error to remember and
// any Retry-After hint for the next wait.
func (t *Transport) attempt(req Request, now func() time.Time) (data []byte, done bool, hint time.Duration, hinted bool, _ error) {
	if ferr := t.Faults.Hit(t.Site); ferr != nil {
		return nil, false, 0, false, fmt.Errorf("%s: %w", t.name, ferr)
	}
	hreq, err := http.NewRequest(req.Method, t.base+req.Path, nil)
	if err != nil {
		return nil, true, 0, false, err
	}
	hreq.Header.Set(admission.TenantHeader, req.Tenant)
	hreq.Header.Set(admission.PriorityHeader, req.Priority.String())
	if req.Body != nil {
		hreq.Header.Set("Content-Type", "application/octet-stream")
		for _, p := range req.Body {
			hreq.ContentLength += int64(len(p))
		}
		if hreq.ContentLength > 0 {
			hreq.GetBody = func() (io.ReadCloser, error) {
				// net.Buffers consumes the list it reads from: each reader
				// gets its own copy of it.
				body := append(net.Buffers(nil), req.Body...)
				return io.NopCloser(&body), nil
			}
			hreq.Body, _ = hreq.GetBody()
		}
	}
	resp, err := t.client.Do(hreq)
	if err != nil {
		var op *net.OpError
		if req.FailFastDial && errors.As(err, &op) && op.Op == "dial" {
			return nil, true, 0, false, fmt.Errorf("%s %s: %w (%w)", t.name, t.base, ErrUnavailable, err)
		}
		return nil, false, 0, false, fmt.Errorf("%s: %w", t.name, err) // network-level failure: transient
	}
	// Read the body in full either way so the connection is reusable.
	data, readErr := readBody(resp.Body, resp.ContentLength)
	resp.Body.Close()
	switch {
	case resp.StatusCode >= 300:
		statusErr := t.statusErr(resp.StatusCode, data)
		if !Transient(resp.StatusCode) {
			return nil, true, 0, false, statusErr
		}
		hint, hinted = parseRetryAfter(resp.Header.Get("Retry-After"), now())
		return nil, false, hint, hinted, statusErr
	case readErr != nil:
		return nil, false, 0, false, fmt.Errorf("%s: reading response: %w", t.name, readErr) // truncated response: transient
	}
	return data, true, 0, false, nil
}

var errTruncatedUpload = errors.New("truncated upload")

// ReadUpload reads a request body of at most limit bytes. It fails with
// an error wrapping *http.MaxBytesError when the body is larger — at once,
// before reading a byte, when the declared length already is — with the
// read error when the client died mid-upload, and with a "truncated
// upload" error when fewer bytes arrived than were declared; each service
// renders the failure in its own shape.
func ReadUpload(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, fmt.Errorf("declared %d bytes: %w", r.ContentLength, &http.MaxBytesError{Limit: limit})
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err != nil {
		return nil, err
	}
	if r.ContentLength >= 0 && int64(len(body)) != r.ContentLength {
		return nil, errTruncatedUpload
	}
	return body, nil
}

// maxPresize caps how much of a declared length readBody allocates before
// the bytes arrive: the declaration is the sender's word, so a body past
// this size grows as it is read instead.
const maxPresize = 4 << 20

// readBody reads r to EOF into one buffer sized from declared, the
// body's Content-Length (-1 when unknown). A body as long as it declared,
// up to maxPresize, costs exactly that one allocation.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	size := 512
	if declared >= 0 {
		size = int(min(declared, maxPresize))
	}
	buf := make([]byte, 0, size)
	for {
		var n int
		var err error
		if len(buf) < cap(buf) {
			n, err = r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
		} else {
			// Full: look for EOF before growing the buffer.
			var probe [1]byte
			n, err = r.Read(probe[:])
			buf = append(buf, probe[:n]...)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
