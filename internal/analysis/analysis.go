// Package analysis is the trace-ingest service: the paper's
// identification pipeline (internal/core) offered over the network, so
// a traced application streams its instruction trace to a service and
// gets back the set of critical variables to checkpoint — the full
// AutoCheck loop as a service, with the checkpoint store behind it.
//
// Two ingestion shapes share one engine path:
//
//   - One-shot: POST the whole trace (text or ACTB binary, sniffed by
//     magic) and receive the result in the response.
//   - Chunked sessions: create a session carrying the LoopSpec, PUT
//     strictly ordered chunks — arbitrary byte splits of the trace, the
//     ACTB encoding is stateful and only splits at byte granularity —
//     and POST finish to collect the result. A chunk request decodes its
//     bytes through the session's fed trace reader into its core.Engine
//     before it is acknowledged: no session owns a goroutine, and memory
//     stays O(variables) regardless of trace size.
//
// Sessions are durable: every chunk is persisted through the embedding
// server's store stack *before* it is acknowledged (ack-after-persist),
// so a server restart or an idle eviction never loses acknowledged
// bytes — an unknown session id is recovered lazily from its keys in
// the store by replaying the acknowledged chunk prefix into a fresh
// engine, and the client resumes at the next sequence number. Because
// the engine is deterministic, a resumed session's result is
// byte-identical to an uninterrupted run.
//
// Admission control is delegated to internal/admission: a namespace
// holds at most MaxSessions live session leases and MaxInFlight
// concurrent requests, and excess traffic is shed with 429 carrying the
// controller's computed Retry-After, which the retrying Client honors.
// Idle sessions are evicted after IdleTTL (state stays in the store;
// eviction only frees the session's memory).
package analysis

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"autocheck/internal/admission"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// Failpoints on the session ingest path.
const (
	// SiteSessionChunk fires once per accepted chunk, before anything is
	// persisted: error sheds the chunk with 503 (the client retries),
	// drop kills the connection without a response, crash panics the
	// handler goroutine.
	SiteSessionChunk = "analysis.session.chunk"
	// SiteSessionCkpt fires on the chunk-persist step: an error makes
	// the durable write fail, so the chunk is neither persisted nor
	// acknowledged — the ack-after-persist invariant under test.
	SiteSessionCkpt = "analysis.session.ckpt"
)

// Typed error codes carried in the JSON error envelope.
const (
	CodeInvalidArgument = "invalid_argument"
	CodeDecode          = "decode"
	CodeNoLoop          = "no_loop"
	CodeOutOfOrder      = "out_of_order"
	CodeDuplicateChunk  = "duplicate_chunk"
	CodeUnknownSession  = "unknown_session"
	CodeSessionFailed   = "session_failed"
	CodeSessionFinished = "session_finished"
	CodeQuota           = "quota"
	CodeTooLarge        = "too_large"
	CodeUnavailable     = "unavailable"
)

// Error is the service's typed error: an HTTP status, a stable machine
// code, and — for sequencing errors — the next sequence number the
// session expects, which is all a client needs to resynchronize.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Expect  int    `json:"expect,omitempty"`

	// RetryAfter, when set on a shed, is the admission-computed value
	// the HTTP layer puts on the Retry-After header.
	RetryAfter time.Duration `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("analysis: %s: %s", e.Code, e.Message)
}

// Config defaults.
const (
	DefaultMaxSessions = 8
	DefaultMaxInFlight = 16
	DefaultIdleTTL     = 2 * time.Minute
	DefaultSweepEvery  = 15 * time.Second
)

// DefaultMaxChunkBytes bounds one chunk (or one-shot body) upload; a
// larger one is refused with a too-large error.
const DefaultMaxChunkBytes = int64(64) << 20

// Config parameterizes a Service.
type Config struct {
	// MaxSessions bounds live sessions per namespace; excess creates are
	// shed with 429 + Retry-After. Sessions recovered from the store
	// after a restart bypass the bound — they were admitted once.
	MaxSessions int

	// MaxInFlight bounds concurrently served ingest requests (chunks,
	// one-shots, finishes) per namespace, layered under the embedding
	// server's global MaxInFlight semaphore.
	MaxInFlight int

	// IdleTTL evicts sessions with no request activity for this long;
	// their durable state stays in the store, so a late client resumes
	// via recovery. SweepEvery is the janitor period; negative disables
	// the janitor (tests drive EvictIdle directly).
	IdleTTL    time.Duration
	SweepEvery time.Duration

	// Open returns the store backend for a namespace. The service asks
	// only for one, "sessions", which holds every session's objects —
	// the embedding server passes its own per-namespace factory so
	// session chunks flow through the exact store stack the service is
	// configured with. nil falls back to one in-memory backend for the
	// service's life (standalone use: idle eviction recovers, a new
	// service starts empty).
	Open func(ns string) (store.Backend, error)

	// Faults arms the session failpoints; nil leaves ingest fault-free.
	Faults *faultinject.Registry

	// Obs receives the service's metrics (analysis.sessions gauge, chunk
	// latency/byte instruments, eviction/resume counters). nil creates a
	// private registry.
	Obs *obs.Registry

	// NewID and Now are test seams; nil means crypto/rand hex ids and
	// the real clock. An id must be a store name without a '.'.
	NewID func() string
	Now   func() time.Time
}

type sessState int

const (
	sessActive sessState = iota
	sessFinished
	sessFailed
)

func (st sessState) String() string {
	switch st {
	case sessActive:
		return "active"
	case sessFinished:
		return "finished"
	}
	return "failed"
}

// session is one chunked ingest session. An active session decodes
// each chunk inside the request that brings it, under mu: the fed reader
// turns the bytes into records and the engine observes them, so the
// request's ingest slot is the service's backpressure.
type session struct {
	id   string
	ns   string // tenant namespace (admission accounting)
	meta sessMeta
	back store.Backend // the store stack's sessions namespace

	mu      sync.Mutex
	state   sessState
	dropped bool  // evicted or shut down: a later request recovers a fresh copy
	next    int   // next expected chunk sequence number
	bytes   int64 // acknowledged trace bytes
	last    time.Time
	res     *core.Result // set once finished
	failErr error        // set once failed

	// The decode state of an active session, released when it ends.
	eng *core.Engine
	rd  *trace.WindowReader
}

// Service is the trace-ingest service. Create one with NewService and
// mount its handlers (http.go) into a server mux, or call the exported
// methods directly for in-process use.
type Service struct {
	cfg Config
	obs *obs.Registry

	sessionsG *obs.Gauge   // analysis.sessions: sessions resident in memory
	chunkOp   *obs.Op      // analysis.chunk: per-chunk latency/bytes/errors
	oneshotOp *obs.Op      // analysis.oneshot: whole-trace requests
	evictedC  *obs.Counter // analysis.evictions: idle sessions dropped from memory
	resumedC  *obs.Counter // analysis.resumes: sessions recovered from the store
	createdC  *obs.Counter // analysis.sessions_created
	finishedC *obs.Counter // analysis.sessions_finished
	failedC   *obs.Counter // analysis.sessions_failed

	mu         sync.Mutex
	sessions   map[string]*session
	recovering map[string]chan struct{} // ids mid-recovery; waiters block
	closed     bool

	// adm owns every quota decision: per-namespace in-flight slots
	// (TenantSlots = MaxInFlight), session leases (TenantSessions =
	// MaxSessions), and the shed metrics under the "analysis" prefix.
	adm *admission.Controller

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewService creates a service. Defaults are applied for every zero
// field; see Config.
func NewService(cfg Config) *Service {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = DefaultIdleTTL
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = DefaultSweepEvery
	}
	if cfg.Open == nil {
		mem := store.NewMemory()
		cfg.Open = func(string) (store.Backend, error) { return mem, nil }
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.NewID == nil {
		cfg.NewID = randomID
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Service{
		cfg:        cfg,
		obs:        cfg.Obs,
		sessions:   make(map[string]*session),
		recovering: make(map[string]chan struct{}),
		adm: admission.New(admission.Config{
			TenantSlots:    cfg.MaxInFlight,
			TenantSessions: cfg.MaxSessions,
			Prefix:         "analysis",
			Faults:         cfg.Faults,
			Obs:            cfg.Obs,
			Now:            cfg.Now,
		}),
	}
	s.sessionsG = s.obs.Gauge("analysis.sessions")
	s.chunkOp = s.obs.Op("analysis.chunk")
	s.oneshotOp = s.obs.Op("analysis.oneshot")
	s.evictedC = s.obs.Counter("analysis.evictions")
	s.resumedC = s.obs.Counter("analysis.resumes")
	s.createdC = s.obs.Counter("analysis.sessions_created")
	s.finishedC = s.obs.Counter("analysis.sessions_finished")
	s.failedC = s.obs.Counter("analysis.sessions_failed")
	if cfg.SweepEvery > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Obs returns the service's telemetry registry.
func (s *Service) Obs() *obs.Registry { return s.obs }

func (s *Service) now() time.Time { return s.cfg.Now() }

// sessionsNS is the one store namespace holding every session's
// durable state: "<id>.meta", "<id>.chunk-%08d" and "<id>.result"
// objects. The ingest routes shadow the name on the wire, so no tenant
// reaches it through the store API.
const sessionsNS = "sessions"

func metaKey(id string) string           { return id + ".meta" }
func resultKey(id string) string         { return id + ".result" }
func chunkKey(id string, seq int) string { return fmt.Sprintf("%s.chunk-%08d", id, seq) }

const maxChunkSeq = 99999999 // chunkKey's zero-padding keeps List order numeric

// sessMeta is the durable session descriptor, persisted before the
// create is acknowledged.
type sessMeta struct {
	Namespace      string `json:"namespace"`
	Function       string `json:"function"`
	StartLine      int    `json:"start_line"`
	EndLine        int    `json:"end_line"`
	IncludeGlobals bool   `json:"include_globals"`
}

// getData reads the single "data" section of a session object.
func getData(back store.Backend, key string) ([]byte, error) {
	secs, err := back.Get(key)
	if err != nil {
		return nil, err
	}
	for i := range secs {
		if secs[i].Name == "data" {
			return secs[i].Data, nil
		}
	}
	return nil, errors.New("analysis: session object has no data section")
}

func dataSections(data []byte) []store.Section {
	return []store.Section{{Name: "data", Data: data}}
}

// ---- Admission (delegated to internal/admission) ----

// shedError translates an admission refusal into the service's typed
// 429 quota error, carrying the controller's computed Retry-After.
// Injected faults and nil pass through untouched.
func shedError(err error) error {
	sh, ok := admission.AsShed(err)
	if !ok {
		return err
	}
	return &Error{Status: 429, Code: CodeQuota, Message: sh.Error(), RetryAfter: sh.RetryAfter}
}

// acquire admits one in-flight ingest request for the namespace at the
// given priority class; release the ticket when the request is done.
func (s *Service) acquire(ns string, pri admission.Priority) (admission.Ticket, error) {
	tkt, err := s.adm.Acquire(ns, pri)
	return tkt, shedError(err)
}

// ---- Decoding ----

// newSession builds a session, active with a fresh engine and reader.
func (s *Service) newSession(id string, meta sessMeta, back store.Backend) *session {
	sess := &session{id: id, ns: meta.Namespace, meta: meta, back: back, last: s.now(), rd: trace.NewFedReader()}
	opts := core.DefaultOptions()
	opts.IncludeGlobals = meta.IncludeGlobals
	opts.Obs = s.obs
	spec := core.LoopSpec{Function: meta.Function, StartLine: meta.StartLine, EndLine: meta.EndLine}
	sess.eng, _ = core.NewEngine(spec, opts) // never fails
	return sess
}

// ingest feeds data to the session's reader and hands every record it
// completes to the engine, in place; an unfinished record waits in the
// reader.
func (sess *session) ingest(data []byte) error {
	sess.rd.Feed(data)
	return sess.rd.ReadInto(sess.eng.ObserveBatch)
}

// end moves an active session to its final state and releases its
// decode state; the caller releases the session lease.
func (sess *session) end(state sessState, res *core.Result, err error) {
	sess.state, sess.res, sess.failErr = state, res, err
	sess.eng, sess.rd = nil, nil
}

// analysisError maps an engine or decoder error to its typed 4xx: a
// LoopSpec that matched nothing is 422, everything else the trace body
// caused — including the decoders' byte-offset errors — is a 400.
func analysisError(err error) *Error {
	var nle *core.NoLoopError
	if errors.As(err, &nle) {
		return &Error{Status: 422, Code: CodeNoLoop, Message: err.Error()}
	}
	return &Error{Status: 400, Code: CodeDecode, Message: err.Error()}
}

// errClassOf buckets an error for the per-op error-class counters.
func errClassOf(err error) string {
	if err == nil {
		return ""
	}
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Code
	}
	if errors.Is(err, faultinject.ErrInjected) {
		return "injected"
	}
	return "error"
}

// checkRequest validates the tenant namespace and loop spec of a create
// or one-shot request.
func checkRequest(ns string, spec core.LoopSpec) error {
	if !store.ValidName(ns) {
		return &Error{Status: 400, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("invalid namespace %q", ns)}
	}
	if spec.Function == "" || spec.StartLine <= 0 || spec.EndLine < spec.StartLine {
		return &Error{Status: 400, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("invalid loop spec %+v", spec)}
	}
	return nil
}

// ---- Session lifecycle ----

// Create opens a new chunked session for the tenant namespace ns. The
// session's meta object is persisted before the create is acknowledged,
// so a created session is always recoverable.
func (s *Service) Create(ns string, spec core.LoopSpec, includeGlobals bool) (SessionStatus, error) {
	if err := checkRequest(ns, spec); err != nil {
		return SessionStatus{}, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return SessionStatus{}, errClosed
	}
	if aerr := shedError(s.adm.AcquireSession(ns, false)); aerr != nil {
		return SessionStatus{}, aerr
	}
	id := s.cfg.NewID()
	meta := sessMeta{Namespace: ns, Function: spec.Function,
		StartLine: spec.StartLine, EndLine: spec.EndLine, IncludeGlobals: includeGlobals}
	back, err := s.cfg.Open(sessionsNS)
	if err == nil {
		mdata, _ := json.Marshal(meta)
		err = back.Put(metaKey(id), dataSections(mdata))
	}
	if err != nil {
		s.adm.ReleaseSession(ns)
		return SessionStatus{}, &Error{Status: 503, Code: CodeUnavailable,
			Message: fmt.Sprintf("persisting session meta: %v", err)}
	}
	sess := s.newSession(id, meta, back)
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	s.sessionsG.Inc()
	s.createdC.Inc()
	return sess.status(), nil
}

// session resolves id, recovering it from the store when it is not
// resident (a restarted server, or an evicted idle session). Concurrent
// requests for one recovering id share a single recovery.
func (s *Service) session(id string) (*session, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errClosed
		}
		if sess, ok := s.sessions[id]; ok {
			s.mu.Unlock()
			return sess, nil
		}
		if ch, ok := s.recovering[id]; ok {
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.recovering[id] = ch
		s.mu.Unlock()

		sess, err := s.recover(id)
		s.mu.Lock()
		delete(s.recovering, id)
		if err == nil && s.closed {
			sess, err = nil, errClosed // shut down mid-recovery: not published
		}
		if sess != nil {
			s.sessions[id] = sess
			if sess.state == sessActive {
				// Admitted by its original create, a recovered session
				// only re-enters memory: it bypasses the bound but still
				// holds a lease.
				s.adm.AcquireSession(sess.ns, true)
			}
		}
		s.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		s.sessionsG.Inc()
		s.resumedC.Inc()
		return sess, nil
	}
}

// recover rebuilds a session from its keys in the store: a finished
// session from its persisted result, an interrupted one by replaying
// the acknowledged chunk prefix into a fresh engine. Replay is
// deterministic, so the rebuilt engine state — and any eventual result
// — is byte-identical to the uninterrupted run.
func (s *Service) recover(id string) (*session, error) {
	// Every id Create hands out is a store name that leaves room for its
	// longest key; any other id has no keys to recover.
	if !store.ValidName(chunkKey(id, 0)) {
		return nil, &Error{Status: 404, Code: CodeUnknownSession,
			Message: fmt.Sprintf("no session %q", id)}
	}
	back, err := s.cfg.Open(sessionsNS)
	if err != nil {
		return nil, &Error{Status: 503, Code: CodeUnavailable,
			Message: fmt.Sprintf("opening session store: %v", err)}
	}
	mdata, err := getData(back, metaKey(id))
	if errors.Is(err, store.ErrNotFound) {
		return nil, &Error{Status: 404, Code: CodeUnknownSession,
			Message: fmt.Sprintf("no session %q", id)}
	}
	var meta sessMeta
	if err == nil {
		err = json.Unmarshal(mdata, &meta)
	}
	if err != nil {
		return nil, &Error{Status: 503, Code: CodeUnavailable,
			Message: fmt.Sprintf("reading session meta: %v", err)}
	}

	// A persisted result short-circuits replay: the chunk count comes
	// from the key list and the byte total from the result's TraceBytes,
	// so no chunk is read. A missing or unreadable result falls through
	// to deterministic replay.
	sess := s.newSession(id, meta, back)
	rdata, err := getData(back, resultKey(id))
	var res *core.Result
	if err == nil {
		res, err = decodeResult(rdata)
	}
	var keys []string
	if err == nil {
		keys, err = back.List()
	}
	if err == nil {
		sess.end(sessFinished, res, nil)
		sess.bytes = res.Stats.TraceBytes
		for _, k := range keys {
			if strings.HasPrefix(k, id+".chunk-") {
				sess.next++
			}
		}
		return sess, nil
	}
	for seq := 0; ; seq++ {
		data, err := getData(back, chunkKey(id, seq))
		if errors.Is(err, store.ErrNotFound) {
			break
		}
		if err != nil {
			return nil, &Error{Status: 503, Code: CodeUnavailable,
				Message: fmt.Sprintf("replaying session chunk %d: %v", seq, err)}
		}
		sess.next = seq + 1
		sess.bytes += int64(len(data))
		if ierr := sess.ingest(data); ierr != nil {
			// The persisted prefix re-fails exactly where the original
			// ingest failed: the session recovers into its failed state.
			sess.end(sessFailed, nil, ierr)
			break
		}
	}
	return sess, nil
}

// Chunk ingests one ordered chunk: persist (ack-after-persist), decode
// it into the engine, advance the sequence. Sequencing violations return
// typed errors carrying the expected sequence number.
func (s *Service) Chunk(id string, seq int, data []byte) (err error) {
	start := s.chunkOp.Start()
	defer func() { s.chunkOp.Done(start, int64(len(data)), errClassOf(err)) }()
	if seq < 0 || seq > maxChunkSeq {
		return &Error{Status: 400, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("chunk sequence %d out of range", seq)}
	}
	sess, err := s.session(id)
	if err != nil {
		return err
	}
	tkt, aerr := s.acquire(sess.ns, admission.Ingest)
	if aerr != nil {
		return aerr
	}
	defer tkt.Release()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.last = s.now()
	switch sess.state {
	case sessFinished:
		return &Error{Status: 409, Code: CodeSessionFinished,
			Message: "session already finished"}
	case sessFailed:
		return &Error{Status: 400, Code: CodeSessionFailed,
			Message: fmt.Sprintf("session failed: %v", sess.failErr)}
	}
	if seq != sess.next {
		if seq < sess.next {
			return &Error{Status: 409, Code: CodeDuplicateChunk, Expect: sess.next,
				Message: fmt.Sprintf("chunk %d already acknowledged; next is %d", seq, sess.next)}
		}
		return &Error{Status: 409, Code: CodeOutOfOrder, Expect: sess.next,
			Message: fmt.Sprintf("chunk %d out of order; next is %d", seq, sess.next)}
	}
	if sess.dropped {
		return errDropped
	}
	if ferr := s.cfg.Faults.Hit(SiteSessionChunk); ferr != nil {
		return ferr // http layer maps drop/error; crash already panicked
	}
	if ferr := s.cfg.Faults.Hit(SiteSessionCkpt); ferr != nil {
		return ferr
	}
	if perr := sess.back.Put(chunkKey(sess.id, seq), dataSections(data)); perr != nil {
		// Not persisted, therefore not acknowledged: the client retries
		// the same sequence number against unchanged session state.
		return &Error{Status: 503, Code: CodeUnavailable,
			Message: fmt.Sprintf("persisting chunk %d: %v", seq, perr)}
	}
	sess.next = seq + 1
	sess.bytes += int64(len(data))
	if ierr := sess.ingest(data); ierr != nil {
		// A decode error is terminal: the chunk's bytes are part of the
		// durable prefix, so recovery re-fails deterministically.
		sess.end(sessFailed, nil, ierr)
		s.failedC.Inc()
		s.adm.ReleaseSession(sess.ns)
		return analysisError(ierr)
	}
	return nil
}

// errDropped answers a request holding a session that was evicted, shut
// down or deleted under it. Nothing was persisted: a retry recovers the
// session from the store, or finds it gone.
var errDropped = &Error{Status: 503, Code: CodeUnavailable,
	Message: "session dropped from memory; retry to recover it"}

var errClosed = &Error{Status: 503, Code: CodeUnavailable, Message: "service shutting down"}

// Finish closes the session's trace stream and returns the analysis
// result, persisting it for idempotent re-finish and post-restart
// status queries. The bytes only the end of the trace completes are
// decoded here, so their errors surface as the same typed 4xx a chunk
// would have produced.
func (s *Service) Finish(id string) (*core.Result, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	tkt, aerr := s.acquire(sess.ns, admission.Interactive)
	if aerr != nil {
		return nil, aerr
	}
	defer tkt.Release()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.last = s.now()
	switch sess.state {
	case sessFinished:
		return sess.res, nil // idempotent
	case sessFailed:
		return nil, &Error{Status: 400, Code: CodeSessionFailed,
			Message: fmt.Sprintf("session failed: %v", sess.failErr)}
	}
	if sess.dropped {
		return nil, errDropped
	}
	sess.rd.CloseFeed()
	err = sess.ingest(nil)
	var res *core.Result
	if err == nil {
		res, err = sess.eng.Finish()
	}
	if err != nil {
		sess.end(sessFailed, nil, err)
		s.failedC.Inc()
		s.adm.ReleaseSession(sess.ns)
		return nil, analysisError(err)
	}
	// The engine never saw the trace as one buffer; restore the byte
	// accounting a local AnalyzeBytes would report.
	res.Stats.TraceBytes = sess.bytes
	sess.end(sessFinished, res, nil)
	s.finishedC.Inc()
	s.adm.ReleaseSession(sess.ns)
	// Best-effort persist: if this write is lost, recovery replays the
	// chunk prefix and recomputes the identical result.
	_ = sess.back.Put(resultKey(sess.id), dataSections(encodeResult(res)))
	return res, nil
}

// SessionStatus is the GET /v1/sessions/{id} payload.
type SessionStatus struct {
	ID             string `json:"id"`
	Namespace      string `json:"namespace"`
	State          string `json:"state"`
	NextSeq        int    `json:"next_seq"`
	Bytes          int64  `json:"bytes"`
	Function       string `json:"function"`
	StartLine      int    `json:"start_line"`
	EndLine        int    `json:"end_line"`
	IncludeGlobals bool   `json:"include_globals"`
}

func (sess *session) status() SessionStatus {
	return SessionStatus{
		ID: sess.id, Namespace: sess.ns, State: sess.state.String(),
		NextSeq: sess.next, Bytes: sess.bytes,
		Function: sess.meta.Function, StartLine: sess.meta.StartLine, EndLine: sess.meta.EndLine,
		IncludeGlobals: sess.meta.IncludeGlobals,
	}
}

// Status reports a session's state — a reconnecting client's resume
// point (NextSeq) comes from here when it missed the typed sequencing
// error that carries it.
func (s *Service) Status(id string) (SessionStatus, error) {
	sess, err := s.session(id)
	if err != nil {
		return SessionStatus{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.last = s.now()
	return sess.status(), nil
}

// Delete purges a session: it is dropped from memory, its keys are
// removed, and the id becomes unknown. The keys are deleted by name —
// one probe past the acknowledged chunks, the chunks from the last down,
// the result, the meta last — so the namespace is never listed, and a
// Delete that fails part way leaves a session that recovers with the
// chunks still stored and can be deleted again.
func (s *Service) Delete(id string) error {
	sess, err := s.session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	sess.mu.Lock()
	s.drop(sess)
	chunks := sess.next
	sess.mu.Unlock()
	s.sessionsG.Dec()
	keys := make([]string, 0, chunks+3)
	for seq := chunks; seq >= 0; seq-- {
		keys = append(keys, chunkKey(id, seq))
	}
	keys = append(keys, resultKey(id), metaKey(id))
	for _, k := range keys {
		if derr := sess.back.Delete(k); derr != nil && !errors.Is(derr, store.ErrNotFound) {
			return &Error{Status: 503, Code: CodeUnavailable,
				Message: fmt.Sprintf("deleting session object %q: %v", k, derr)}
		}
	}
	return nil
}

// OneShot analyzes a complete trace body in one request. Every failure
// the body can cause — decode errors at any byte offset, a loop spec
// that matches nothing — maps to a typed 4xx, never a 5xx.
func (s *Service) OneShot(ns string, spec core.LoopSpec, data []byte, includeGlobals bool) (res *core.Result, err error) {
	start := s.oneshotOp.Start()
	defer func() { s.oneshotOp.Done(start, int64(len(data)), errClassOf(err)) }()
	if err := checkRequest(ns, spec); err != nil {
		return nil, err
	}
	tkt, aerr := s.acquire(ns, admission.Interactive)
	if aerr != nil {
		return nil, aerr
	}
	defer tkt.Release()
	opts := core.DefaultOptions()
	opts.IncludeGlobals = includeGlobals
	opts.Obs = s.obs
	res, cerr := core.AnalyzeBytes(data, spec, opts)
	if cerr != nil {
		return nil, analysisError(cerr)
	}
	return res, nil
}

// EvictIdle drops sessions idle for at least IdleTTL from memory (their
// durable state remains recoverable) and returns how many were evicted.
// The janitor calls this every SweepEvery; tests call it directly.
func (s *Service) EvictIdle(now time.Time) int {
	var evicted int
	s.mu.Lock()
	for id, sess := range s.sessions {
		sess.mu.Lock()
		if now.Sub(sess.last) >= s.cfg.IdleTTL {
			delete(s.sessions, id)
			s.drop(sess)
			evicted++
			s.evictedC.Inc()
			s.sessionsG.Dec()
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	return evicted
}

// drop marks a session that left the service's memory (evicted, shut
// down or deleted), under sess.mu: a request still holding it gets
// errDropped, and an active one gives its lease back.
func (s *Service) drop(sess *session) {
	sess.dropped = true
	if sess.state == sessActive {
		s.adm.ReleaseSession(sess.ns)
	}
}

func (s *Service) janitor() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	defer close(s.janitorDone)
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.EvictIdle(s.now())
		}
	}
}

// Close stops the janitor and drops every resident session. Durable
// session state is untouched — a service restarted over the same store
// recovers and resumes them.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := s.sessions
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	for _, sess := range sessions {
		sess.mu.Lock()
		s.drop(sess)
		sess.mu.Unlock()
		s.sessionsG.Dec()
	}
	return nil
}
