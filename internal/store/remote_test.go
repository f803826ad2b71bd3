package store

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autocheck/internal/faultinject"
	"autocheck/internal/wire"
)

// fakeService is a minimal scripted stand-in for internal/server (which
// cannot be imported here without a cycle): namespaced Memory backends
// behind the same /v1/{ns}/objects wire protocol, plus failure
// injection for the retry tests. The real client↔service integration is
// tested in internal/server.
type fakeService struct {
	mu       sync.Mutex
	stores   map[string]*Memory
	failNext int // respond 503 to this many requests before serving
	requests int
	srv      *httptest.Server
}

func newFakeService(t testing.TB) *fakeService {
	t.Helper()
	f := &fakeService{stores: make(map[string]*Memory)}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/{ns}/objects/{key}", f.wrap(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sections, err := DecodeSections(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.backend(r.PathValue("ns")).Put(r.PathValue("key"), sections)
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("GET /v1/{ns}/objects/{key}", f.wrap(func(w http.ResponseWriter, r *http.Request) {
		sections, err := f.backend(r.PathValue("ns")).Get(r.PathValue("key"))
		if errors.Is(err, ErrNotFound) {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(EncodeSections(sections))
	}))
	mux.HandleFunc("GET /v1/{ns}/objects", f.wrap(func(w http.ResponseWriter, r *http.Request) {
		keys, _ := f.backend(r.PathValue("ns")).List()
		io.WriteString(w, strings.Join(keys, "\n"))
	}))
	mux.HandleFunc("DELETE /v1/{ns}/objects/{key}", f.wrap(func(w http.ResponseWriter, r *http.Request) {
		err := f.backend(r.PathValue("ns")).Delete(r.PathValue("key"))
		if errors.Is(err, ErrNotFound) {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("POST /v1/{ns}/flush", f.wrap(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeService) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.requests++
		shed := f.failNext > 0
		if shed {
			f.failNext--
		}
		f.mu.Unlock()
		if shed {
			http.Error(w, "injected transient failure", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

func (f *fakeService) backend(ns string) *Memory {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.stores[ns]
	if b == nil {
		b = NewMemory()
		f.stores[ns] = b
	}
	return b
}

func (f *fakeService) requestCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

func (f *fakeService) setFailNext(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// fastRemote returns a client with millisecond backoff for tests.
func fastRemote(t *testing.T, addr, ns string) *Remote {
	t.Helper()
	r, err := NewRemote(addr, ns)
	if err != nil {
		t.Fatal(err)
	}
	r.Backoff = time.Millisecond
	return r
}

func TestRemoteRoundtripAndNamespaceIsolation(t *testing.T) {
	f := newFakeService(t)
	a := fastRemote(t, f.srv.URL, "ns-a")
	b := fastRemote(t, f.srv.URL, "ns-b")
	defer a.Close()
	defer b.Close()

	want := sampleSections(4)
	if err := a.Put("ckpt-000001", want); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("ckpt-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("round-tripped sections differ")
	}
	// Namespaces are disjoint key spaces.
	if _, err := b.Get("ckpt-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cross-namespace read = %v, want ErrNotFound", err)
	}
	keysB, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keysB) != 0 {
		t.Errorf("namespace b lists %v, want empty", keysB)
	}
	keysA, err := a.List()
	if err != nil || len(keysA) != 1 || keysA[0] != "ckpt-000001" {
		t.Errorf("namespace a lists %v (%v)", keysA, err)
	}
	if err := a.Delete("ckpt-000001"); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("ckpt-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete = %v, want ErrNotFound", err)
	}
	st := a.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Deletes != 1 || st.BytesWritten <= 0 || st.BytesRead <= 0 {
		t.Errorf("client stats = %+v", st)
	}
}

func TestRemoteRetriesTransientFailures(t *testing.T) {
	f := newFakeService(t)
	r := fastRemote(t, f.srv.URL, "retry")
	defer r.Close()
	f.setFailNext(2) // two 503s, then success — within the default 4 attempts
	if err := r.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("Put should have retried through transient failures: %v", err)
	}
	if got := f.requestCount(); got != 3 {
		t.Errorf("requests = %d, want 3 (two shed + one served)", got)
	}
}

func TestRemoteRetriesExhausted(t *testing.T) {
	f := newFakeService(t)
	r := fastRemote(t, f.srv.URL, "exhaust")
	r.MaxAttempts = 3
	defer r.Close()
	f.setFailNext(100)
	err := r.Put("ckpt-000001", sampleSections(1))
	if err == nil {
		t.Fatal("Put succeeded against a dead service")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Errorf("error should carry the last status: %v", err)
	}
	if got := f.requestCount(); got != 3 {
		t.Errorf("requests = %d, want exactly MaxAttempts=3", got)
	}
}

func TestRemotePermanentErrorsAreNotRetried(t *testing.T) {
	f := newFakeService(t)
	r := fastRemote(t, f.srv.URL, "perm")
	defer r.Close()
	// The fake decodes uploads like the real service: hand-roll a Put of
	// a corrupt blob by bypassing Put's own encoding via a raw request.
	req, _ := http.NewRequest(http.MethodPut, f.srv.URL+"/v1/perm/objects/ckpt-000001",
		strings.NewReader("garbage"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload = %d, want 400", resp.StatusCode)
	}
	// A 4xx through the client must not burn retry attempts.
	before := f.requestCount()
	if _, err := r.Get("no-such-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key = %v, want ErrNotFound", err)
	}
	if got := f.requestCount() - before; got != 1 {
		t.Errorf("404 took %d requests, want 1 (no retry)", got)
	}
}

func TestRemoteRejectsCorruptResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "not an object")
	}))
	defer srv.Close()
	r := fastRemote(t, srv.URL, "x")
	defer r.Close()
	if _, err := r.Get("ckpt-000001"); err == nil {
		t.Error("corrupt payload accepted — the CRC framing must hold end to end")
	}
}

func TestRemoteConnectionErrorIsTransient(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := srv.URL
	srv.Close() // nothing listens anymore
	r := fastRemote(t, addr, "gone")
	r.MaxAttempts = 2
	start := time.Now()
	if err := r.Put("ckpt-000001", sampleSections(1)); err == nil {
		t.Fatal("Put succeeded with nothing listening")
	}
	if time.Since(start) < time.Millisecond {
		t.Error("no backoff observed before the retry")
	}
}

func TestRemoteValidation(t *testing.T) {
	if _, err := NewRemote("://bad url", ""); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := NewRemote("ftp://host", ""); err == nil {
		t.Error("non-HTTP scheme accepted")
	}
	if _, err := NewRemote("localhost:1", "../escape"); err == nil {
		t.Error("traversal namespace accepted")
	}
	r, err := NewRemote("localhost:1", "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Namespace() != "default" {
		t.Errorf("default namespace = %q", r.Namespace())
	}
	if err := r.Put("bad/key", sampleSections(1)); err == nil {
		t.Error("key with separator accepted")
	}
	if _, err := r.Get(".."); err == nil {
		t.Error("traversal key accepted")
	}
}

func TestNamespaceForDir(t *testing.T) {
	a := NamespaceForDir("/tmp/scratch/fail0")
	b := NamespaceForDir("/tmp/scratch/fail1")
	if a == b {
		t.Errorf("distinct dirs map to one namespace %q", a)
	}
	if a != NamespaceForDir("/tmp/scratch/fail0") {
		t.Error("namespace derivation is not stable")
	}
	if !ValidName(a) {
		t.Errorf("derived namespace %q is not path-safe", a)
	}
	if NamespaceForDir("") != "default" {
		t.Errorf(`empty dir should map to "default"`)
	}
	long := NamespaceForDir(strings.Repeat("/very/long/path", 20))
	if !ValidName(long) {
		t.Errorf("long-path namespace %q invalid", long)
	}
}

// fakeClock is the retry loop's test clock: sleeps advance it instantly
// and are recorded, so Retry-After and budget behavior are asserted
// without real waiting.
type fakeClock struct {
	mu    sync.Mutex
	t     time.Time
	waits []time.Duration
}

func (c *fakeClock) install(r *Remote) {
	c.t = time.Unix(1000, 0)
	r.tr.SetClock(func(d time.Duration) {
		c.mu.Lock()
		c.waits = append(c.waits, d)
		c.t = c.t.Add(d)
		c.mu.Unlock()
	}, func() time.Time {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.t
	})
}

func (c *fakeClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

func TestRemoteHonorsRetryAfterHint(t *testing.T) {
	var mu sync.Mutex
	shed := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s := shed > 0
		if s {
			shed--
		}
		mu.Unlock()
		if s {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	r := fastRemote(t, srv.URL, "hint")
	defer r.Close()
	clock := &fakeClock{}
	clock.install(r)
	if err := r.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("put through the shed window: %v", err)
	}
	want := []time.Duration{2 * time.Second, 2 * time.Second}
	if got := clock.slept(); !reflect.DeepEqual(got, want) {
		t.Fatalf("waits = %v, want the server's Retry-After hint %v (not the local backoff)", got, want)
	}
}

// TestRemoteRidesOut429: the service sheds store routes with 503 only,
// but a rate-limiting proxy in front of it answers 429. Under the shared
// transient rule the checkpoint waits out the proxy's hint and lands
// instead of failing.
func TestRemoteRidesOut429(t *testing.T) {
	f := newFakeService(t)
	var limited atomic.Bool
	limited.Store(true)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if limited.Swap(false) {
			w.Header().Set("Retry-After", "4")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		f.srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	r := fastRemote(t, proxy.URL, "limited")
	defer r.Close()
	clock := &fakeClock{}
	clock.install(r)
	want := sampleSections(2)
	if err := r.Put("ckpt-000001", want); err != nil {
		t.Fatalf("put through a 429: %v", err)
	}
	if got, want := clock.slept(), []time.Duration{4 * time.Second}; !reflect.DeepEqual(got, want) {
		t.Errorf("waits = %v, want the proxy's hint %v", got, want)
	}
	if got, err := r.Get("ckpt-000001"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("object after the retried put: %v", err)
	}
}

func TestRemoteInjectedNetworkFaultIsTransient(t *testing.T) {
	f := newFakeService(t)
	r := fastRemote(t, f.srv.URL, "inject")
	defer r.Close()
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteRemoteDo, Action: faultinject.ActionError, Nth: 1})
	r.SetFaults(reg)
	if err := r.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("put should ride out the injected network fault: %v", err)
	}
	// The injected failure happened before the wire: the service saw only
	// the successful second attempt.
	if got := f.requestCount(); got != 1 {
		t.Errorf("service requests = %d, want 1", got)
	}
}

// deadListenerAddr returns an address nothing listens on: a listener is
// bound to grab a free port and closed again, so a dial is refused
// immediately rather than timing out.
func deadListenerAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRemoteFailFastDial is the dead-replica regression test: by
// default a connection-refused Get burns the whole retry budget against
// the same endpoint; with FailFastDial the first refused dial is final
// and wraps ErrUnavailable, so a replicated tier moves on to the next
// replica promptly.
func TestRemoteFailFastDial(t *testing.T) {
	addr := deadListenerAddr(t)

	slow := fastRemote(t, addr, "dead")
	defer slow.Close()
	var waits int
	slow.tr.SetClock(func(time.Duration) { waits++ }, nil)
	_, err := slow.Get("ckpt-000001")
	if err == nil {
		t.Fatal("Get against a dead listener succeeded")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("default client classified a dial error as final: %v", err)
	}
	if want := wire.DefaultAttempts - 1; waits != want {
		t.Errorf("default client retried %d times, want %d", waits, want)
	}

	fast := fastRemote(t, addr, "dead")
	defer fast.Close()
	fast.FailFastDial = true
	waits = 0
	fast.tr.SetClock(func(time.Duration) { waits++ }, nil)
	_, err = fast.Get("ckpt-000001")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fail-fast Get = %v, want ErrUnavailable", err)
	}
	if waits != 0 {
		t.Errorf("fail-fast client slept %d times, want 0", waits)
	}
}

// TestRemoteFailFastDialStillRetriesServerErrors: fail-fast applies to
// the dial only — a connected service answering 5xx is still transient
// and retried (the CI serve smoke and load shedding depend on it).
func TestRemoteFailFastDialStillRetriesServerErrors(t *testing.T) {
	f := newFakeService(t)
	r := fastRemote(t, f.srv.URL, "ff-5xx")
	defer r.Close()
	r.FailFastDial = true
	f.setFailNext(2)
	if err := r.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("put should ride out 503s even with FailFastDial: %v", err)
	}
}

// TestRemotePutStreamsTheEncoding: Put sends an object's encoding read
// straight from its sections, and every attempt sends EncodeSections'
// bytes exactly — a retry after a 503 too, since the sections it reads
// again are read-only. Its Stats are what the blob path counts.
func TestRemotePutStreamsTheEncoding(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	shed := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || r.ContentLength != int64(len(body)) {
			t.Errorf("body: %d bytes of %d declared, %v", len(body), r.ContentLength, err)
		}
		mu.Lock()
		bodies = append(bodies, body)
		refuse := shed > 0
		shed--
		mu.Unlock()
		if refuse {
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	big := objectSections(8, 32<<10)
	for _, tc := range []struct {
		name     string
		sections []Section
		shed     int
	}{
		{"no sections", nil, 0},
		{"empty data", []Section{{Name: "a"}, {Name: "b", Data: []byte{}}, {Name: "", Data: []byte("xyz")}, {Name: "d"}}, 0},
		{"8x32KiB", big, 0},
		{"retried after 503", big, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := EncodeSections(tc.sections)
			mu.Lock()
			bodies, shed = nil, tc.shed
			mu.Unlock()
			r := fastRemote(t, srv.URL, "ns")
			defer r.Close()
			if err := r.Put("k", tc.sections); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			sent := bodies
			bodies = nil
			mu.Unlock()
			if len(sent) != tc.shed+1 {
				t.Fatalf("%d requests, want %d", len(sent), tc.shed+1)
			}
			for i, body := range sent {
				if !bytes.Equal(body, want) {
					t.Errorf("attempt %d sent %d bytes unequal to the %d of EncodeSections", i, len(body), len(want))
				}
			}
			blob := fastRemote(t, srv.URL, "ns")
			defer blob.Close()
			if err := blob.PutBlob("k", want); err != nil {
				t.Fatal(err)
			}
			got, exp := r.Stats(), blob.Stats()
			if got.Puts != exp.Puts || got.BytesWritten != exp.BytesWritten || got.SectionsWritten != exp.SectionsWritten {
				t.Errorf("Put counts %d puts, %d bytes, %d sections; PutBlob %d, %d, %d",
					got.Puts, got.BytesWritten, got.SectionsWritten, exp.Puts, exp.BytesWritten, exp.SectionsWritten)
			}
		})
	}
}
