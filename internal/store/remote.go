package store

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"autocheck/internal/admission"
	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
	"autocheck/internal/wire"
)

// Remote is the client backend for the networked checkpoint service of
// internal/server: objects are PUT/GET as the same CRC-framed blobs the
// file-like backends persist, under one namespace of a shared service,
// so many concurrent clients checkpoint into a single store without
// sharing a filesystem.
//
// Requests go through the shared wire.Transport, whose retry policy is
// the one analysis.Client follows too: network errors, 5xx responses —
// including the service's 503 load-shedding when its in-flight bound is
// hit — and 429 are retried with exponential backoff, at most MaxAttempts
// times and within a MaxElapsed wall-clock budget, and a Retry-After hint
// replaces the local wait (the service knows how long its drain or shed
// condition lasts better than a blind doubling does). The service itself
// sheds store routes with 503 only; 429 is retried so that a rate-limiting
// proxy in front of it delays a checkpoint instead of failing it. Every
// other 4xx is permanent and returned immediately. Get re-verifies the
// CRC framing end to end, so a torn or bit-flipped payload fails the
// same way it would on disk and checkpoint.Restart falls back to an
// older checkpoint.
type Remote struct {
	// MaxAttempts, Backoff and MaxElapsed tune the retry loop.
	wire.Retry

	// FailFastDial makes a dial-level failure (connection refused, no
	// route) final instead of retried: the endpoint is down, not busy,
	// and the caller has other replicas to try. Off by default — a
	// single-endpoint client relies on dial retries to ride out service
	// startup. The resulting error wraps ErrUnavailable.
	FailFastDial bool

	ns   string
	root string // /v1/<ns>
	tr   *wire.Transport
	ops  opSet

	mu    sync.Mutex
	stats Stats
}

// NewRemote returns a client backend for the checkpoint service at addr
// (host:port or full URL), storing under the given namespace ("" means
// "default"). It does not contact the service: a service that is still
// starting up is absorbed by the first request's retry loop.
func NewRemote(addr, namespace string) (*Remote, error) {
	if namespace == "" {
		namespace = "default"
	}
	if !ValidName(namespace) {
		return nil, fmt.Errorf("store: invalid remote namespace %q", namespace)
	}
	t, err := wire.New("store: remote service", addr, remoteStatusError)
	if err != nil {
		return nil, err
	}
	t.Site = SiteRemoteDo
	return &Remote{
		Retry: wire.DefaultRetry(),
		ns:    namespace,
		root:  "/v1/" + url.PathEscape(namespace),
		tr:    t,
	}, nil
}

// Namespace returns the service-side key namespace this client writes to.
func (r *Remote) Namespace() string { return r.ns }

// ValidName reports whether s is safe as a service namespace or key
// path segment (no traversal, no separators). The client and the
// service (internal/server) share this single definition so their
// accepted alphabets cannot drift apart.
func ValidName(s string) bool {
	if s == "" || len(s) > 128 || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// errRemoteStatus is a non-2xx response other than 404.
type errRemoteStatus struct {
	status int
	msg    string
}

func (e *errRemoteStatus) Error() string {
	return fmt.Sprintf("store: remote service: %d %s: %s",
		e.status, http.StatusText(e.status), strings.TrimSpace(e.msg))
}

// remoteStatusError maps a non-2xx response to the store's errors.
func remoteStatusError(status int, body []byte) error {
	if status == http.StatusNotFound {
		return ErrNotFound
	}
	return &errRemoteStatus{status: status, msg: string(body)}
}

// ErrUnavailable marks an endpoint-down failure: the TCP dial itself was
// refused or unroutable, as opposed to a connected service misbehaving.
// Only surfaced when FailFastDial is set; the replicated tier uses it to
// move to the next replica without burning the whole retry budget.
var ErrUnavailable = wire.ErrUnavailable

// SetFaults implements FaultInjectable.
func (r *Remote) SetFaults(reg *faultinject.Registry) { r.tr.Faults = reg }

// SetObs implements Observable. Besides the standard per-op recorders
// (whose latency spans the whole retry loop, waits included), the remote
// client records each HTTP exchange in an attempt-latency histogram and
// counts retries, so backoff behavior is observable per attempt.
func (r *Remote) SetObs(reg *obs.Registry) {
	r.ops = newOpSet(reg, "store.remote")
	r.tr.AttemptLat = reg.Histogram("store.remote.attempt.ns")
	r.tr.Retries = reg.Counter("store.remote.retries")
}

// do performs one exchange against this namespace of the service.
func (r *Remote) do(method, path string, body [][]byte, pri admission.Priority) ([]byte, error) {
	return r.tr.Do(r.Retry, wire.Request{
		Method: method, Path: r.root + path, Body: body,
		Tenant: r.ns, Priority: pri, FailFastDial: r.FailFastDial,
	})
}

// Put implements Backend: the request body is the object's framing read
// straight from the sections, which are never copied into a blob.
func (r *Remote) Put(key string, sections []Section) error {
	return r.put(key, frame(sections), admission.Interactive)
}

// PutBlob implements BlobStore: blob is the request body. Checkpoint
// writes are foreground work.
func (r *Remote) PutBlob(key string, blob []byte) error {
	return r.put(key, [][]byte{blob}, admission.Interactive)
}

// PutScrub is PutBlob announced as maintenance traffic: replica repair
// writes admit at scrub priority so a loaded service drains them last
// and they never displace a tenant's foreground checkpoints.
func (r *Remote) PutScrub(key string, blob []byte) error {
	return r.put(key, [][]byte{blob}, admission.Scrub)
}

// put sends an object as the pieces of its encoding, the first of which
// holds the header.
func (r *Remote) put(key string, object [][]byte, pri admission.Priority) (err error) {
	start := r.ops.put.Start()
	var n int64
	defer func() { r.ops.put.Done(start, n, errClass(err)) }()
	if !ValidName(key) {
		return fmt.Errorf("store: invalid remote key %q", key)
	}
	if _, err = r.do(http.MethodPut, "/objects/"+url.PathEscape(key), object, pri); err != nil {
		return err
	}
	for _, p := range object {
		n += int64(len(p))
	}
	r.mu.Lock()
	r.stats.Puts++
	r.stats.BytesWritten += n
	r.stats.SectionsWritten += sectionCount(object[0])
	r.mu.Unlock()
	return nil
}

// Get implements Backend. Reads ride the restart path: a recovering
// process blocks on them, so they admit at the highest class.
func (r *Remote) Get(key string) ([]Section, error) {
	sections, _, err := r.get(key, admission.Restart, true)
	return sections, err
}

// GetBlob implements BlobStore: the response body, verified.
func (r *Remote) GetBlob(key string) ([]byte, error) {
	_, blob, err := r.get(key, admission.Restart, false)
	return blob, err
}

// GetScrub is GetBlob announced as maintenance traffic (replica scrub
// reads), admitting at the lowest class.
func (r *Remote) GetScrub(key string) ([]byte, error) {
	_, blob, err := r.get(key, admission.Scrub, false)
	return blob, err
}

// get reads key's object and checks its framing once: decoded in place
// into sections, or only verified when the caller wants the blob.
func (r *Remote) get(key string, pri admission.Priority, decode bool) (sections []Section, blob []byte, err error) {
	start := r.ops.get.Start()
	defer func() { r.ops.get.Done(start, int64(len(blob)), errClass(err)) }()
	if !ValidName(key) {
		return nil, nil, fmt.Errorf("store: invalid remote key %q", key)
	}
	body, err := r.do(http.MethodGet, "/objects/"+url.PathEscape(key), nil, pri)
	if err != nil {
		return nil, nil, err
	}
	if decode {
		sections, err = DecodeSections(body)
	} else {
		_, err = VerifySections(body)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: remote object %q: %w", key, err)
	}
	r.mu.Lock()
	r.stats.Gets++
	r.stats.BytesRead += int64(len(body))
	r.mu.Unlock()
	return sections, body, nil
}

// List implements Backend.
func (r *Remote) List() ([]string, error) {
	start := r.ops.list.Start()
	keys, err := r.list()
	r.ops.list.Done(start, 0, errClass(err))
	return keys, err
}

func (r *Remote) list() ([]string, error) {
	data, err := r.do(http.MethodGet, "/objects", nil, admission.Restart)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			// A namespace nothing was written to yet is an empty store,
			// not an error.
			return nil, nil
		}
		return nil, err
	}
	var keys []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			keys = append(keys, line)
		}
	}
	return keys, nil
}

// Delete implements Backend.
func (r *Remote) Delete(key string) error {
	start := r.ops.del.Start()
	err := r.del(key)
	r.ops.del.Done(start, 0, errClass(err))
	return err
}

func (r *Remote) del(key string) error {
	if !ValidName(key) {
		return fmt.Errorf("store: invalid remote key %q", key)
	}
	if _, err := r.do(http.MethodDelete, "/objects/"+url.PathEscape(key), nil, admission.Interactive); err != nil {
		return err
	}
	r.mu.Lock()
	r.stats.Deletes++
	r.mu.Unlock()
	return nil
}

// Stats implements Backend, reporting this client's view of the traffic
// it generated (the service aggregates all clients at GET /v1/stats).
func (r *Remote) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Flush implements Backend: ask the service to flush the namespace's
// backend (a no-op unless the service itself runs an async store).
func (r *Remote) Flush() error {
	_, err := r.do(http.MethodPost, "/flush", nil, admission.Interactive)
	return err
}

// Close implements Backend: release pooled connections. The service's
// objects are unaffected — closing a client never discards checkpoints.
func (r *Remote) Close() error {
	r.tr.Close()
	return nil
}
