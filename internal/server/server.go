// Package server is the networked checkpoint storage service: a
// stdlib-only HTTP object server over the pluggable backends of
// internal/store, so many concurrent clients (store.Remote) checkpoint
// into one shared store without sharing a filesystem — the ROADMAP's
// "heavy traffic, multi-backend" direction made concrete.
//
// The wire format is the store package's CRC-framed object encoding:
// clients PUT/GET exactly the blob a local backend would persist, and a
// blob backend (store.BlobStore) stores and serves those bytes without
// decoding them. The service verifies the CRC before committing a Put, so
// a client that dies mid-upload (or a bit flip in transit) never creates
// an object; and because the file backend commits with temp-file +
// rename, a service killed with SIGKILL mid-Put leaves either the
// previous object or none — never a readable torn one.
//
// Keys live in namespaces — /v1/{ns}/objects/{key} — each namespace
// backed by its own backend instance (for the file kind, its own
// subdirectory of the service root), so independent clients get
// disjoint key spaces and List order stays per-client chronological.
//
// Concurrency: backends are already safe for concurrent use; on top of
// that the service holds a per-key write lock across Put/Delete (reads
// take the shared side), serializing conflicting writes to one key
// while unrelated keys proceed in parallel. Admission is delegated to
// internal/admission: a global MaxInFlight bound by default, optionally
// per-tenant (namespace) concurrency slots, token-bucket rate limits,
// and bounded priority queues via Config.Admission — excess requests
// shed with 503 + Retry-After, which store.Remote treats as transient
// and retries with backoff. Shutdown stops accepting, drains in-flight
// requests, then flushes and closes every backend.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"autocheck/internal/admission"
	"autocheck/internal/analysis"
	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
	"autocheck/internal/store"
	"autocheck/internal/wire"
)

// Config parameterizes a service.
type Config struct {
	// Store is the template for per-namespace backends, each opened with
	// store.Open. Kind, Sync and CacheMB apply as-is; for the file kind
	// each namespace is rooted at Dir/<namespace>. KindRemote and
	// KindReplicated are rejected (the service does not proxy to another
	// service). Incremental, Async and Keyframe are ignored: store.Open
	// never decorates, so no delta chains across the keys of a namespace
	// (ingest sessions share one). A client that wants those decorators
	// adds them on its own side.
	Store store.Config

	// MaxInFlight bounds concurrently served requests; excess requests
	// are rejected with 503 + Retry-After (default DefaultMaxInFlight).
	MaxInFlight int

	// Admission carries the multi-tenant knobs of the unified admission
	// layer: per-tenant concurrency slots, token-bucket rate limits, and
	// bounded priority wait queues (with queue-derived Retry-After
	// hints). MaxInFlight, Prefix, Obs and Faults are filled from the
	// server's own configuration; the zero value reproduces the classic
	// global-semaphore behavior with a fixed 1s Retry-After.
	Admission admission.Config

	// Faults arms deterministic fault injection on the request path (the
	// SiteRequest failpoint); backend-side faults travel in Store.Faults.
	// nil leaves the service fault-free.
	Faults *faultinject.Registry

	// Obs is the telemetry registry serving GET /v1/metrics: per-route
	// latency histograms, in-flight/shed gauges, and per-namespace
	// request/byte counters. nil makes the service create its own — a
	// service is always observable; pass a registry to share it with an
	// embedding process (the bench harness, a store stack armed with the
	// same registry).
	Obs *obs.Registry

	// Ingest, when non-nil, mounts the trace-ingest service
	// (internal/analysis) into this server: the one-shot analyze
	// endpoint and the chunked session API. Its Open/Obs/Faults fields
	// are filled from the server's own when unset, so session
	// checkpoints flow through the server's store stack and its metrics
	// land in /v1/metrics.
	Ingest *analysis.Config
}

// SiteRequest is the service's failpoint: it fires after admission, once
// per served request. An error action sheds the request with 503 +
// Retry-After (a load/unavailability storm), drop swallows the response
// after performing nothing (the client sees a dead connection), delay
// slows the service, and crash kills the handling goroutine (net/http
// recovers it per-connection, which the client also experiences as a
// connection error).
const SiteRequest = "server.request"

// DefaultMaxInFlight is Config.MaxInFlight's default.
const DefaultMaxInFlight = 64

// DefaultMaxObjectBytes bounds one object upload; a larger one is
// refused with 400.
const DefaultMaxObjectBytes = int64(1) << 30

// Server is one checkpoint service instance.
type Server struct {
	cfg     Config
	factory func(ns string) (store.Backend, error)
	handler http.Handler
	adm     *admission.Controller

	// inflight drains requests that arrived through Handler() directly
	// (httptest, custom listeners) — http.Server.Shutdown only drains
	// connections it accepted itself. The drain refusal lives in the
	// admission controller.
	inflight sync.WaitGroup

	keyLocks sync.Map // "ns\x00key" -> *sync.RWMutex

	obs      *obs.Registry
	shedC    *obs.Counter // server.shed: shared with the admission layer
	nsCounts sync.Map     // ns -> *nsMetrics

	ingest *analysis.Service // nil unless Config.Ingest was set

	mu       sync.Mutex
	backends map[string]store.Backend
	httpSrv  *http.Server
	closed   bool
	final    *StatsReport // snapshot taken at shutdown, before backends close

	requests atomic.Int64
	rejected atomic.Int64
}

// nsMetrics is one namespace's request/byte breakdown, resolved once and
// then touched with atomics only.
type nsMetrics struct {
	requests, bytesIn, bytesOut *obs.Counter
}

// nsStats returns (creating on first use) the namespace's counters.
func (s *Server) nsStats(ns string) *nsMetrics {
	if m, ok := s.nsCounts.Load(ns); ok {
		return m.(*nsMetrics)
	}
	m := &nsMetrics{
		requests: s.obs.Counter("server.ns." + ns + ".requests"),
		bytesIn:  s.obs.Counter("server.ns." + ns + ".bytes_in"),
		bytesOut: s.obs.Counter("server.ns." + ns + ".bytes_out"),
	}
	actual, _ := s.nsCounts.LoadOrStore(ns, m)
	return actual.(*nsMetrics)
}

// New creates a service whose namespaces are backed by cfg.Store.
func New(cfg Config) (*Server, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	tmpl := cfg.Store
	if tmpl.Obs == nil {
		// Backend-side telemetry lands in the service registry by default,
		// so /v1/metrics covers the whole stack, routes through store ops.
		tmpl.Obs = cfg.Obs
	}
	if tmpl.Kind == store.KindRemote || tmpl.Kind == store.KindReplicated {
		return nil, errors.New("server: refusing to back the service with another remote service")
	}
	if tmpl.Kind != store.KindMemory && tmpl.Dir == "" {
		return nil, fmt.Errorf("server: %s-backed service needs a root directory", tmpl.Kind)
	}
	return NewWithFactory(cfg, func(ns string) (store.Backend, error) {
		nscfg := tmpl
		if nscfg.Dir != "" {
			nscfg.Dir = filepath.Join(tmpl.Dir, ns)
		}
		return store.Open(nscfg)
	}), nil
}

// NewWithFactory creates a service whose per-namespace backends come
// from factory (tests inject memory backends; embedders can inject
// arbitrary chains).
func NewWithFactory(cfg Config, factory func(ns string) (store.Backend, error)) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		factory:  factory,
		backends: make(map[string]store.Backend),
	}
	s.obs = cfg.Obs
	// The admission controller owns the server.shed/server.inflight
	// instruments; the server keeps its own handle on the aggregate shed
	// counter for the injected-unavailability path, which is not a shed
	// decision the controller made but is accounted with the sheds.
	s.shedC = s.obs.Counter("server.shed")
	acfg := cfg.Admission
	acfg.MaxInFlight = cfg.MaxInFlight
	acfg.Prefix = "server"
	acfg.Obs = cfg.Obs
	if acfg.Faults == nil {
		acfg.Faults = cfg.Faults
	}
	s.adm = admission.New(acfg)
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/{ns}/objects/{key}", s.route("put", s.handlePut))
	mux.HandleFunc("GET /v1/{ns}/objects/{key}", s.route("get", s.handleGet))
	mux.HandleFunc("DELETE /v1/{ns}/objects/{key}", s.route("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/{ns}/objects", s.route("list", s.handleList))
	mux.HandleFunc("POST /v1/{ns}/flush", s.route("flush", s.handleFlush))
	mux.HandleFunc("GET /v1/stats", s.route("stats", s.handleStats))
	mux.HandleFunc("GET /v1/metrics", s.route("metrics", s.handleMetrics))
	if cfg.Ingest != nil {
		icfg := *cfg.Ingest
		if icfg.Open == nil {
			// Session chunks flow through the server's own store stack:
			// every session's keys live in the one "sessions" namespace,
			// flushed and closed with every other namespace at Shutdown.
			icfg.Open = s.backend
		}
		if icfg.Obs == nil {
			icfg.Obs = cfg.Obs
		}
		if icfg.Faults == nil {
			icfg.Faults = cfg.Faults
		}
		s.ingest = analysis.NewService(icfg)
		// The ingest API lives on its own mux behind a path-prefix
		// dispatch: its routes ("/v1/analyze/...", "/v1/sessions...")
		// are ambiguous against the store API's "/v1/{ns}/..." patterns
		// under ServeMux precedence, so the two APIs cannot share one.
		// Store namespaces named "analyze" or "sessions" are shadowed on
		// the wire as a consequence, which keeps the ingest sessions'
		// own namespace out of every tenant's reach.
		imux := http.NewServeMux()
		s.ingest.Mount(imux, s.route)
		s.handler = s.bound(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if p := r.URL.Path; strings.HasPrefix(p, "/v1/analyze/") ||
				p == "/v1/sessions" || strings.HasPrefix(p, "/v1/sessions/") {
				imux.ServeHTTP(w, r)
				return
			}
			mux.ServeHTTP(w, r)
		}))
		return s
	}
	s.handler = s.bound(mux)
	return s
}

// Ingest returns the mounted trace-ingest service, or nil.
func (s *Server) Ingest() *analysis.Service { return s.ingest }

// Obs returns the service's telemetry registry (embedders, tests, the
// bench harness).
func (s *Server) Obs() *obs.Registry { return s.obs }

// Admission returns the service's admission controller (tests,
// embedders inspecting queue depth or flipping drain mode).
func (s *Server) Admission() *admission.Controller { return s.adm }

// statusWriter captures the response status for route telemetry.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// classOfStatus buckets a response status for the per-route error-class
// counters; "" means success. status 0 means the handler never wrote —
// it panicked (an injected crash or drop) and the connection died.
func classOfStatus(status int) string {
	switch {
	case status == 0:
		return "aborted"
	case status == http.StatusNotFound:
		return "not_found"
	case status >= 500:
		return "server_error"
	case status >= 400:
		return "bad_request"
	}
	return ""
}

// route wraps a handler with its per-route telemetry: a latency
// histogram "server.<name>.ns" and error-class counters keyed by
// response status. The recorder is resolved once at construction; the
// deferred Done runs even when an injected crash panics the handler.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	op := s.obs.Op("server." + name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := op.Start()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			op.Done(start, 0, classOfStatus(sw.status))
		}()
		h(sw, r)
	}
}

// requestTenant derives the request's admission tenant: the explicit
// header set by store.Remote / analysis.Client, else the namespace
// embedded in the URL path, else "default". Pure string slicing — the
// accept path stays allocation-free.
func requestTenant(r *http.Request) string {
	if t := r.Header.Get(admission.TenantHeader); t != "" {
		return t
	}
	p := r.URL.Path
	if !strings.HasPrefix(p, "/v1/") {
		return "default"
	}
	seg, rest, more := strings.Cut(p[len("/v1/"):], "/")
	if seg == "analyze" {
		if ns, _, _ := strings.Cut(rest, "/"); ns != "" {
			return ns
		}
		return "default"
	}
	// Sessions are addressed by id, not namespace; stats/metrics (and
	// any other single-segment endpoint) are control traffic.
	if !more || seg == "" || seg == "sessions" {
		return "default"
	}
	return seg
}

// requestPriority derives the admission class: the explicit header,
// else reads (the restart path) ahead of writes.
func requestPriority(r *http.Request) admission.Priority {
	if h := r.Header.Get(admission.PriorityHeader); h != "" {
		if p, ok := admission.ParsePriority(h); ok {
			return p
		}
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return admission.Restart
	}
	return admission.Interactive
}

// shedMessage renders a refusal body per shed reason.
func shedMessage(sh *admission.Shed) string {
	switch sh.Reason {
	case admission.ReasonDrain:
		return "server: shutting down"
	case admission.ReasonTenantQuota:
		return "server: tenant over its concurrency quota"
	case admission.ReasonRate:
		return "server: tenant rate limited"
	}
	return "server: too many in-flight requests"
}

// bound is the load-shedding middleware: every request is admitted
// through the unified admission controller (global bound, per-tenant
// quotas/rates, priority queues); refusals get 503 + the controller's
// computed Retry-After, which store.Remote's retry loop absorbs.
func (s *Server) bound(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tkt, err := s.adm.Acquire(requestTenant(r), requestPriority(r))
		if err != nil {
			if sh, ok := admission.AsShed(err); ok {
				// Drain refusals are not "rejected" in the stats report:
				// the service is leaving, not overloaded — matching the
				// classic drain accounting.
				if sh.Reason != admission.ReasonDrain {
					s.rejected.Add(1)
				}
				w.Header().Set("Retry-After", admission.FormatRetryAfter(sh.RetryAfter))
				http.Error(w, shedMessage(sh), http.StatusServiceUnavailable)
				return
			}
			// An injected admission.request fault: unavailability, not a
			// shed decision.
			s.refuseInjected(w, err)
			return
		}
		s.inflight.Add(1)
		defer func() { tkt.Release(); s.inflight.Done() }()
		// Before the requests counter, mirroring real load shedding: an
		// injected 503 or dropped connection was never served, so the
		// requests/rejected accounting stays consistent across both
		// paths.
		if err := s.cfg.Faults.Hit(SiteRequest); err != nil {
			s.refuseInjected(w, err)
			return
		}
		s.requests.Add(1)
		next.ServeHTTP(w, r)
	})
}

// refuseInjected answers a request an injected fault made unavailable. A
// drop swallows the response: the connection is aborted without writing
// anything, which the client sees as a network error and retries.
// Anything else looks exactly like load shedding, with an
// immediate-retry hint so chaos sweeps spend their time on retries, not
// sleeps.
func (s *Server) refuseInjected(w http.ResponseWriter, err error) {
	if a, _ := faultinject.ActionOf(err); a == faultinject.ActionDrop {
		panic(http.ErrAbortHandler)
	}
	s.rejected.Add(1)
	s.shedC.Inc()
	w.Header().Set("Retry-After", "0")
	http.Error(w, "server: injected unavailability", http.StatusServiceUnavailable)
}

// Handler returns the service's HTTP handler (httptest servers, custom
// listeners/middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on l until Shutdown (which makes it return
// nil) or a listener error.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	hs := &http.Server{Handler: s.handler}
	if s.cfg.Faults != nil {
		// Injected crashes panic handler goroutines on purpose; net/http
		// logging every one would bury a chaos sweep's real output.
		hs.ErrorLog = log.New(io.Discard, "", 0)
	}
	s.httpSrv = hs
	s.mu.Unlock()
	if err := hs.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on addr and serves; ready (optional) receives
// the bound address once the listener is open — callers passing ":0"
// learn the port, and CLI/test startup can synchronize on it.
func (s *Server) ListenAndServe(addr string, ready chan<- string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr().String()
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the service: no new requests, in-flight
// requests drain (bounded by ctx), then every namespace backend is
// flushed and closed. The first error wins; shutdown proceeds past
// failures so no backend is leaked.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.httpSrv
	s.mu.Unlock()
	var first error
	if hs != nil {
		first = hs.Shutdown(ctx)
	}
	// Drain requests that came in through Handler() directly (httptest,
	// embedders' own listeners): new ones are refused with 503 (and any
	// queued waiters shed with a drain refusal), in-flight ones finish
	// before any backend closes — bounded by ctx.
	s.adm.SetDraining(true)
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		if first == nil {
			first = ctx.Err()
		}
	}
	// Stop the ingest service before its session backends close: every
	// engine goroutine exits and no new session writes can start.
	if s.ingest != nil {
		if err := s.ingest.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Snapshot the aggregate accounting while the backends still exist,
	// so post-shutdown Stats() reports the service's lifetime totals.
	rep := s.Stats()
	s.mu.Lock()
	s.closed = true
	s.final = &rep
	backends := s.backends
	s.backends = make(map[string]store.Backend)
	s.mu.Unlock()
	// Deterministic close order keeps error attribution stable.
	names := make([]string, 0, len(backends))
	for ns := range backends {
		names = append(names, ns)
	}
	sort.Strings(names)
	for _, ns := range names {
		b := backends[ns]
		if err := b.Flush(); err != nil && first == nil {
			first = fmt.Errorf("server: flushing namespace %q: %w", ns, err)
		}
		if err := b.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing namespace %q: %w", ns, err)
		}
	}
	return first
}

// backend returns (creating on first use) the namespace's backend.
func (s *Server) backend(ns string) (store.Backend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("server: shutting down")
	}
	if b, ok := s.backends[ns]; ok {
		return b, nil
	}
	b, err := s.factory(ns)
	if err != nil {
		return nil, err
	}
	s.backends[ns] = b
	return b, nil
}

// keyLock returns the lock serializing writes to one key of one
// namespace. Entries live as long as the object: handleDelete drops
// them, so a service whose clients prune with a retention policy holds
// locks only for live keys instead of every key ever written.
func (s *Server) keyLock(ns, key string) *sync.RWMutex {
	m, _ := s.keyLocks.LoadOrStore(ns+"\x00"+key, &sync.RWMutex{})
	return m.(*sync.RWMutex)
}

// dropKeyLock forgets a deleted key's lock. A request racing the delete
// may briefly hold the retired mutex while a new request mints a fresh
// one; that only weakens write ordering on a key being deleted, and
// every backend is independently safe for concurrent use.
func (s *Server) dropKeyLock(ns, key string) {
	s.keyLocks.Delete(ns + "\x00" + key)
}

// names extracts and validates the {ns} (and optionally {key}) path
// values, answering 400 itself on failure.
func (s *Server) names(w http.ResponseWriter, r *http.Request, withKey bool) (ns, key string, ok bool) {
	ns = r.PathValue("ns")
	if !store.ValidName(ns) {
		http.Error(w, fmt.Sprintf("server: invalid namespace %q", ns), http.StatusBadRequest)
		return "", "", false
	}
	if withKey {
		key = r.PathValue("key")
		if !store.ValidName(key) {
			http.Error(w, fmt.Sprintf("server: invalid key %q", key), http.StatusBadRequest)
			return "", "", false
		}
	}
	s.nsStats(ns).requests.Inc()
	return ns, key, true
}

// nsBackend resolves the namespace backend, answering 503 itself on
// failure (backend construction errors are server-side conditions).
func (s *Server) nsBackend(w http.ResponseWriter, ns string) (store.Backend, bool) {
	b, err := s.backend(ns)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return nil, false
	}
	return b, true
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	ns, key, ok := s.names(w, r, true)
	if !ok {
		return
	}
	body, err := wire.ReadUpload(w, r, DefaultMaxObjectBytes)
	if err != nil {
		// Includes a client that died mid-upload (unexpected EOF against
		// the declared Content-Length): nothing is committed.
		http.Error(w, fmt.Sprintf("server: reading object: %v", err), http.StatusBadRequest)
		return
	}
	// Verify the CRC framing before the backend sees the object: a blob
	// corrupted in transit must not replace a good one. The verified body
	// is then stored as it is.
	if _, err := store.VerifySections(body); err != nil {
		http.Error(w, fmt.Sprintf("server: rejecting object: %v", err), http.StatusBadRequest)
		return
	}
	b, ok := s.nsBackend(w, ns)
	if !ok {
		return
	}
	lock := s.keyLock(ns, key)
	err = func() error {
		lock.Lock()
		// Deferred, not inline: a backend that panics mid-Put (an
		// injected crash, or any real bug) must not leave the key's
		// write lock held forever — net/http recovers the handler panic
		// and only kills this connection, so a leaked lock would hang
		// every later request for the key until the client times out.
		defer lock.Unlock()
		return store.PutBlob(b, key, body)
	}()
	if err != nil {
		http.Error(w, fmt.Sprintf("server: put %s/%s: %v", ns, key, err), http.StatusInternalServerError)
		return
	}
	s.nsStats(ns).bytesIn.Add(int64(len(body)))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ns, key, ok := s.names(w, r, true)
	if !ok {
		return
	}
	b, ok := s.nsBackend(w, ns)
	if !ok {
		return
	}
	lock := s.keyLock(ns, key)
	blob, err := func() ([]byte, error) {
		lock.RLock()
		defer lock.RUnlock() // released even if the backend panics
		return store.GetBlob(b, key)
	}()
	if errors.Is(err, store.ErrNotFound) {
		http.Error(w, "server: object not found", http.StatusNotFound)
		return
	}
	if err != nil {
		// Verification failures (torn/corrupt object) land here too: the
		// client sees an error, never bad bytes, and its restart logic
		// falls back to an older checkpoint.
		http.Error(w, fmt.Sprintf("server: get %s/%s: %v", ns, key, err), http.StatusInternalServerError)
		return
	}
	// The stored bytes go out as they are; a blob backend shares them, so
	// nothing here writes to blob.
	s.nsStats(ns).bytesOut.Add(int64(len(blob)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ns, key, ok := s.names(w, r, true)
	if !ok {
		return
	}
	b, ok := s.nsBackend(w, ns)
	if !ok {
		return
	}
	lock := s.keyLock(ns, key)
	err := func() error {
		lock.Lock()
		defer lock.Unlock() // released even if the backend panics
		return b.Delete(key)
	}()
	if errors.Is(err, store.ErrNotFound) {
		http.Error(w, "server: object not found", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("server: delete %s/%s: %v", ns, key, err), http.StatusInternalServerError)
		return
	}
	s.dropKeyLock(ns, key)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ns, _, ok := s.names(w, r, false)
	if !ok {
		return
	}
	b, ok := s.nsBackend(w, ns)
	if !ok {
		return
	}
	keys, err := b.List()
	if err != nil {
		http.Error(w, fmt.Sprintf("server: list %s: %v", ns, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(keys) > 0 {
		io.WriteString(w, strings.Join(keys, "\n")+"\n")
	}
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	ns, _, ok := s.names(w, r, false)
	if !ok {
		return
	}
	b, ok := s.nsBackend(w, ns)
	if !ok {
		return
	}
	if err := b.Flush(); err != nil {
		http.Error(w, fmt.Sprintf("server: flush %s: %v", ns, err), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// StatsReport is the service-wide accounting served at GET /v1/stats.
type StatsReport struct {
	Namespaces int         `json:"namespaces"`
	Requests   int64       `json:"requests"`
	Rejected   int64       `json:"rejected"` // load-shed with 503
	Store      store.Stats `json:"store"`    // summed across namespaces
}

// Stats aggregates the service's counters and every namespace backend's
// storage accounting; after Shutdown it reports the lifetime totals
// captured as the backends closed.
func (s *Server) Stats() StatsReport {
	s.mu.Lock()
	if s.final != nil {
		rep := *s.final
		s.mu.Unlock()
		return rep
	}
	backends := make([]store.Backend, 0, len(s.backends))
	for _, b := range s.backends {
		backends = append(backends, b)
	}
	n := len(s.backends)
	s.mu.Unlock()
	rep := StatsReport{
		Namespaces: n,
		Requests:   s.requests.Load(),
		Rejected:   s.rejected.Load(),
	}
	for _, b := range backends {
		st := b.Stats()
		rep.Store.Puts += st.Puts
		rep.Store.Gets += st.Gets
		rep.Store.Deletes += st.Deletes
		rep.Store.BytesWritten += st.BytesWritten
		rep.Store.BytesRead += st.BytesRead
		rep.Store.SectionsWritten += st.SectionsWritten
		rep.Store.SectionsSkipped += st.SectionsSkipped
		rep.Store.Keyframes += st.Keyframes
		rep.Store.Deltas += st.Deltas
		rep.Store.CacheHits += st.CacheHits
		rep.Store.CacheFollowerHits += st.CacheFollowerHits
		rep.Store.CacheMisses += st.CacheMisses
		rep.Store.Repairs += st.Repairs
		rep.Store.HedgesFired += st.HedgesFired
		rep.Store.HedgesWon += st.HedgesWon
	}
	return rep
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// MetricsReport is the payload of GET /v1/metrics: the full instrument
// snapshot (per-route and per-store-op histograms, gauges, per-namespace
// counters) plus the same aggregate accounting /v1/stats serves, in one
// consistent read.
type MetricsReport struct {
	Metrics obs.Snapshot `json:"metrics"`
	Stats   StatsReport  `json:"stats"`
}

// Metrics captures the service's full telemetry report.
func (s *Server) Metrics() MetricsReport {
	return MetricsReport{Metrics: s.obs.Snapshot(), Stats: s.Stats()}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Metrics())
}
