// Service-level tests: session lifecycle and sequencing, idle eviction
// and recovery, restart resume, per-namespace admission control — all
// against the exported Service methods, with the HTTP layer covered by
// http_integration_test.go.
package analysis_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autocheck/internal/analysis"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/harness"
	"autocheck/internal/progs"
	"autocheck/internal/store"
)

// prep memoizes one traced benchmark per test binary: trace generation
// dominates test time and every test here analyzes the same program.
var (
	prepOnce sync.Once
	prepped  *harness.Prepared
	prepErr  error
	wantRep  string
)

func prep(t *testing.T) (*harness.Prepared, string) {
	t.Helper()
	prepOnce.Do(func() {
		prepped, prepErr = harness.Prepare(progs.Get("IS"), 0)
		if prepErr != nil {
			return
		}
		var res *core.Result
		if res, prepErr = prepped.Analyze(); prepErr == nil {
			wantRep = report(res)
		}
	})
	if prepErr != nil {
		t.Fatal(prepErr)
	}
	return prepped, wantRep
}

// report renders the parts of a result the CLI reports, in a stable byte
// form (the harness's criticalReport).
func report(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.Critical {
		fmt.Fprintf(&sb, "%s/%s@%x:%d (%s); ", c.Fn, c.Name, c.Base, c.SizeBytes, c.Type)
	}
	for _, v := range res.MLI {
		fmt.Fprintf(&sb, "mli %s/%s@%x:%d; ", v.Fn, v.Name, v.Base, v.SizeBytes)
	}
	return sb.String()
}

// sharedStore is a store opener whose backends survive Service (and
// Server) teardown: Close is a no-op and reopening a namespace returns
// the same in-memory backend — the durable substrate restart tests
// "restart" over.
type sharedStore struct {
	mu sync.Mutex
	m  map[string]store.Backend
}

func newSharedStore() *sharedStore {
	return &sharedStore{m: make(map[string]store.Backend)}
}

func (ss *sharedStore) open(ns string) (store.Backend, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	b, ok := ss.m[ns]
	if !ok {
		b = store.NewMemory()
		ss.m[ns] = b
	}
	return nopClose{b}, nil
}

type nopClose struct{ store.Backend }

func (nopClose) Close() error { return nil }

// fixedIDs is a deterministic session id seam.
func fixedIDs(prefix string) func() string {
	var n int
	var mu sync.Mutex
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		n++
		return fmt.Sprintf("%s%04d", prefix, n)
	}
}

// chunks splits data into n roughly equal pieces.
func chunks(data []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	size := (len(data) + n - 1) / n
	var out [][]byte
	for lo := 0; lo < len(data); lo += size {
		out = append(out, data[lo:min(lo+size, len(data))])
	}
	return out
}

func asServiceError(t *testing.T, err error) *analysis.Error {
	t.Helper()
	var ae *analysis.Error
	if !errors.As(err, &ae) {
		t.Fatalf("got %T (%v), want *analysis.Error", err, err)
	}
	return ae
}

func TestOneShotMatchesLocal(t *testing.T) {
	p, want := prep(t)
	svc := analysis.NewService(analysis.Config{SweepEvery: -1})
	defer svc.Close()
	for label, data := range map[string][]byte{"text": p.Data, "binary": p.BinData()} {
		res, err := svc.OneShot("default", p.Spec, data, true)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := report(res); got != want {
			t.Errorf("%s report differs:\nwant %s\ngot  %s", label, want, got)
		}
		if res.Stats.TraceBytes != int64(len(data)) {
			t.Errorf("%s: TraceBytes = %d, want %d", label, res.Stats.TraceBytes, len(data))
		}
	}
}

func TestOneShotTypedErrors(t *testing.T) {
	p, _ := prep(t)
	svc := analysis.NewService(analysis.Config{SweepEvery: -1})
	defer svc.Close()
	cases := []struct {
		name   string
		ns     string
		spec   core.LoopSpec
		data   []byte
		status int
		code   string
	}{
		{"bad-namespace", "no/slash", p.Spec, p.Data, 400, analysis.CodeInvalidArgument},
		{"empty-function", "default", core.LoopSpec{StartLine: 1, EndLine: 2}, p.Data, 400, analysis.CodeInvalidArgument},
		{"inverted-lines", "default", core.LoopSpec{Function: "main", StartLine: 9, EndLine: 3}, p.Data, 400, analysis.CodeInvalidArgument},
		{"garbage-trace", "default", p.Spec, []byte("garbage\n"), 400, analysis.CodeDecode},
		{"no-loop", "default", core.LoopSpec{Function: "nosuchfn", StartLine: 1, EndLine: 2}, p.Data, 422, analysis.CodeNoLoop},
	}
	for _, tc := range cases {
		_, err := svc.OneShot(tc.ns, tc.spec, tc.data, true)
		ae := asServiceError(t, err)
		if ae.Status != tc.status || ae.Code != tc.code {
			t.Errorf("%s: got %d/%s, want %d/%s", tc.name, ae.Status, ae.Code, tc.status, tc.code)
		}
	}
}

// TestSessionLifecycle walks one chunked session through every
// transition: sequencing violations with typed resume points, status,
// finish idempotency, and post-finish rejection.
func TestSessionLifecycle(t *testing.T) {
	p, want := prep(t)
	svc := analysis.NewService(analysis.Config{SweepEvery: -1})
	defer svc.Close()

	if _, err := svc.Create("default", core.LoopSpec{}, true); err == nil {
		t.Fatal("Create accepted an empty loop spec")
	}

	st, err := svc.Create("tenant-a", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "active" || st.NextSeq != 0 || st.Namespace != "tenant-a" {
		t.Fatalf("fresh session status %+v", st)
	}

	parts := chunks(p.BinData(), 5)

	// Sequencing before anything is acknowledged: chunk 3 is out of order
	// and the typed error carries the resume point.
	ae := asServiceError(t, svc.Chunk(st.ID, 3, parts[3]))
	if ae.Status != 409 || ae.Code != analysis.CodeOutOfOrder || ae.Expect != 0 {
		t.Fatalf("out-of-order error %+v", ae)
	}

	if err := svc.Chunk(st.ID, 0, parts[0]); err != nil {
		t.Fatal(err)
	}
	// A duplicate of an acknowledged chunk is a typed 409, not a re-feed.
	ae = asServiceError(t, svc.Chunk(st.ID, 0, parts[0]))
	if ae.Status != 409 || ae.Code != analysis.CodeDuplicateChunk || ae.Expect != 1 {
		t.Fatalf("duplicate error %+v", ae)
	}
	ae = asServiceError(t, svc.Chunk(st.ID, -1, nil))
	if ae.Status != 400 || ae.Code != analysis.CodeInvalidArgument {
		t.Fatalf("negative seq error %+v", ae)
	}

	for i := 1; i < len(parts); i++ {
		if err := svc.Chunk(st.ID, i, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	st, err = svc.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextSeq != len(parts) || st.Bytes != int64(len(p.BinData())) || st.State != "active" {
		t.Fatalf("pre-finish status %+v", st)
	}

	res, err := svc.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := report(res); got != want {
		t.Errorf("chunked report differs:\nwant %s\ngot  %s", want, got)
	}
	if res.Stats.TraceBytes != int64(len(p.BinData())) {
		t.Errorf("TraceBytes = %d, want %d", res.Stats.TraceBytes, len(p.BinData()))
	}

	// Finish is idempotent; further chunks are rejected as finished.
	res2, err := svc.Finish(st.ID)
	if err != nil || report(res2) != want {
		t.Errorf("re-finish: err=%v", err)
	}
	ae = asServiceError(t, svc.Chunk(st.ID, len(parts), []byte("x")))
	if ae.Status != 409 || ae.Code != analysis.CodeSessionFinished {
		t.Fatalf("chunk-after-finish error %+v", ae)
	}

	if err := svc.Delete(st.ID); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Status(st.ID)
	ae = asServiceError(t, err)
	if ae.Status != 404 || ae.Code != analysis.CodeUnknownSession {
		t.Fatalf("post-delete status error %+v", ae)
	}
}

// TestSessionCorruptTraceFailsTyped: a corrupt upload ends the session
// with a typed 4xx, and the session stays failed for subsequent requests.
// Each chunk is decoded inside its own request, so where the upload fails
// is a property of its bytes alone: three fresh services fail it at the
// same request with the same status, code and message.
func TestSessionCorruptTraceFailsTyped(t *testing.T) {
	p, _ := prep(t)
	// A valid prefix, then garbage mid-stream.
	parts := chunks(p.BinData(), 4)
	corrupt := append([]byte{}, parts[1]...)
	for i := range corrupt {
		corrupt[i] ^= 0xa5
	}
	upload := [][]byte{parts[0], corrupt, parts[2], parts[3]}

	var first *analysis.Error
	firstAt := -1
	for run := 0; run < 3; run++ {
		svc := analysis.NewService(analysis.Config{SweepEvery: -1})
		defer svc.Close()
		st, err := svc.Create("default", p.Spec, true)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for ; at < len(upload) && err == nil; at++ {
			err = svc.Chunk(st.ID, at, upload[at])
		}
		if err == nil {
			_, err = svc.Finish(st.ID)
		} else {
			at-- // the chunk that failed
		}
		if at == 0 {
			t.Fatalf("run %d: the valid first chunk failed: %v", run, err)
		}
		ae := asServiceError(t, err)
		if ae.Status != 400 || ae.Code != analysis.CodeDecode {
			t.Fatalf("run %d: corrupt stream error %+v, want 400 %s", run, ae, analysis.CodeDecode)
		}
		if run == 0 {
			first, firstAt = ae, at
		} else if at != firstAt || *ae != *first {
			t.Fatalf("run %d failed at request %d with %+v; run 0 at request %d with %+v", run, at, ae, firstAt, first)
		}

		st2, err := svc.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st2.State != "failed" {
			t.Fatalf("state %q after corrupt stream, want failed", st2.State)
		}
		ae = asServiceError(t, svc.Chunk(st.ID, st2.NextSeq, parts[2]))
		if ae.Status != 400 || ae.Code != analysis.CodeSessionFailed {
			t.Fatalf("chunk-after-failure error %+v", ae)
		}
	}
}

// TestSessionsOwnNoGoroutine: a session is state, not a worker. Creating
// sessions and feeding them chunks starts no goroutine, and neither does
// evicting, recovering or shutting them down.
func TestSessionsOwnNoGoroutine(t *testing.T) {
	p, _ := prep(t)
	parts := chunks(p.BinData(), 4)
	svc := analysis.NewService(analysis.Config{SweepEvery: -1, MaxSessions: 8, Open: newSharedStore().open})
	base := runtime.NumGoroutine()
	grown := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, %d before the first session", when, n, base)
		}
	}
	ids := make([]string, 8)
	for i := range ids {
		st, err := svc.Create("default", p.Spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Chunk(st.ID, 0, parts[0]); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	grown("8 sessions fed a chunk each")
	if n := svc.EvictIdle(time.Now().Add(time.Hour)); n != len(ids) {
		t.Fatalf("evicted %d sessions, want %d", n, len(ids))
	}
	grown("after EvictIdle")
	if err := svc.Chunk(ids[0], 1, parts[1]); err != nil { // recovers by replay
		t.Fatal(err)
	}
	grown("after a recovery")
	svc.Close()
	grown("after Close")
}

// TestRestartResume is the durability core: chunks acknowledged by one
// service instance are replayed by a fresh instance over the same store,
// and the finished result is byte-identical to a local analysis.
func TestRestartResume(t *testing.T) {
	p, want := prep(t)
	ss := newSharedStore()
	parts := chunks(p.BinData(), 6)

	a := analysis.NewService(analysis.Config{
		SweepEvery: -1, Open: ss.open, NewID: fixedIDs("restart"),
	})
	st, err := a.Create("default", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Chunk(st.ID, i, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	a.Close() // the "crash": resident engines die, the store survives

	ae := asServiceError(t, a.Chunk(st.ID, 3, parts[3]))
	if ae.Status != 503 || ae.Code != analysis.CodeUnavailable {
		t.Fatalf("chunk on closed service: %+v", ae)
	}

	b := analysis.NewService(analysis.Config{SweepEvery: -1, Open: ss.open})
	defer b.Close()
	st2, err := b.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NextSeq != 3 || st2.State != "active" {
		t.Fatalf("recovered status %+v, want next_seq=3 active", st2)
	}
	for i := 3; i < len(parts); i++ {
		if err := b.Chunk(st.ID, i, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := b.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := report(res); got != want {
		t.Errorf("resumed report differs:\nwant %s\ngot  %s", want, got)
	}
	if n := b.Obs().Snapshot().Counters["analysis.resumes"]; n != 1 {
		t.Errorf("analysis.resumes = %d, want 1", n)
	}

	// A third instance finds the persisted result without replaying.
	c := analysis.NewService(analysis.Config{SweepEvery: -1, Open: ss.open})
	defer c.Close()
	res3, err := c.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := report(res3); got != want {
		t.Errorf("post-restart finish differs:\nwant %s\ngot  %s", want, got)
	}
	st3, err := c.Status(st.ID)
	if err != nil || st3.State != "finished" {
		t.Errorf("recovered finished status %+v (err %v)", st3, err)
	}
}

// TestIdleEviction: an evicted idle session leaves memory (gauge and
// counters agree) but its durable state recovers on the next touch, and
// the eventual result is unaffected.
func TestIdleEviction(t *testing.T) {
	p, want := prep(t)
	ss := newSharedStore()
	clock := time.Unix(1000, 0)
	svc := analysis.NewService(analysis.Config{
		SweepEvery: -1, IdleTTL: time.Minute, Open: ss.open,
		Now: func() time.Time { return clock },
	})
	defer svc.Close()

	parts := chunks(p.BinData(), 4)
	st, err := svc.Create("default", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Chunk(st.ID, 0, parts[0]); err != nil {
		t.Fatal(err)
	}
	if n := svc.EvictIdle(clock.Add(30 * time.Second)); n != 0 {
		t.Fatalf("evicted %d sessions before TTL", n)
	}
	if n := svc.EvictIdle(clock.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions after TTL, want 1", n)
	}
	snap := svc.Obs().Snapshot()
	if snap.Counters["analysis.evictions"] != 1 || snap.Gauges["analysis.sessions"] != 0 {
		t.Fatalf("post-eviction obs: evictions=%d sessions=%d",
			snap.Counters["analysis.evictions"], snap.Gauges["analysis.sessions"])
	}

	// The next chunk recovers the session transparently and the stream
	// completes as if nothing happened.
	for i := 1; i < len(parts); i++ {
		if err := svc.Chunk(st.ID, i, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := report(res); got != want {
		t.Errorf("post-eviction report differs:\nwant %s\ngot  %s", want, got)
	}
	snap = svc.Obs().Snapshot()
	if snap.Counters["analysis.resumes"] != 1 {
		t.Errorf("analysis.resumes = %d, want 1", snap.Counters["analysis.resumes"])
	}
}

// TestSessionQuota: the per-namespace live-session bound sheds creates
// with a typed 429 and frees capacity on finish and delete, while other
// namespaces are unaffected.
func TestSessionQuota(t *testing.T) {
	p, _ := prep(t)
	svc := analysis.NewService(analysis.Config{SweepEvery: -1, MaxSessions: 2})
	defer svc.Close()

	a, err := svc.Create("tenant-a", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create("tenant-a", p.Spec, true); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Create("tenant-a", p.Spec, true)
	ae := asServiceError(t, err)
	if ae.Status != 429 || ae.Code != analysis.CodeQuota {
		t.Fatalf("over-quota create: %+v", ae)
	}
	// Another tenant's quota is its own.
	if _, err := svc.Create("tenant-b", p.Spec, true); err != nil {
		t.Fatalf("tenant-b create shed by tenant-a's quota: %v", err)
	}
	if n := svc.Obs().Snapshot().Counters["analysis.shed"]; n != 1 {
		t.Errorf("analysis.shed = %d, want 1", n)
	}

	// Finishing a session frees its slot.
	if err := svc.Chunk(a.ID, 0, p.BinData()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Finish(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create("tenant-a", p.Spec, true); err != nil {
		t.Fatalf("create after finish still shed: %v", err)
	}
}

// TestInFlightCap: the per-namespace concurrent-request bound sheds the
// second request while the first is still being served (held open by a
// delay failpoint), with the typed 429 the retrying client absorbs.
func TestInFlightCap(t *testing.T) {
	p, _ := prep(t)
	faults := faultinject.NewRegistry(1)
	svc := analysis.NewService(analysis.Config{
		SweepEvery: -1, MaxInFlight: 1, Faults: faults,
	})
	defer svc.Close()

	s1, err := svc.Create("tenant-a", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := svc.Create("tenant-a", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	parts := chunks(p.BinData(), 2)

	if err := faults.ArmSchedule("analysis.session.chunk=delay@nth=1@delay=300ms"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- svc.Chunk(s1.ID, 0, parts[0]) }()
	// Wait until the first chunk is provably in flight (inside its delay).
	deadline := time.Now().Add(2 * time.Second)
	for faults.Fired() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delay failpoint never fired")
		}
		time.Sleep(time.Millisecond)
	}
	ae := asServiceError(t, svc.Chunk(s2.ID, 0, parts[0]))
	if ae.Status != 429 || ae.Code != analysis.CodeQuota {
		t.Fatalf("in-flight shed: %+v", ae)
	}
	if err := <-done; err != nil {
		t.Fatalf("delayed chunk: %v", err)
	}
	// Capacity freed: the identical retry now succeeds.
	if err := svc.Chunk(s2.ID, 0, parts[0]); err != nil {
		t.Fatalf("chunk after drain: %v", err)
	}
}
