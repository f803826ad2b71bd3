package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autocheck/internal/store"
)

func sampleSections(seed byte) []store.Section {
	big := make([]byte, 1024)
	for i := range big {
		big[i] = byte(i) ^ seed
	}
	return []store.Section{
		{Name: "~ckpt", Data: []byte{seed, 1, 2, 3}},
		{Name: "x", Data: []byte{seed, 0xAA}},
		{Name: "arr", Data: big},
	}
}

// memService starts a memory-backed service on an httptest listener.
func memService(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWithFactory(cfg, func(ns string) (store.Backend, error) {
		return store.NewMemory(), nil
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, ts
}

func client(t testing.TB, url, ns string) *store.Remote {
	t.Helper()
	r, err := store.NewRemote(url, ns)
	if err != nil {
		t.Fatal(err)
	}
	r.Backoff = time.Millisecond
	return r
}

func TestServiceRoundtripWithRemoteClient(t *testing.T) {
	s, ts := memService(t, Config{})
	a := client(t, ts.URL, "client-a")
	b := client(t, ts.URL, "client-b")
	defer a.Close()
	defer b.Close()

	for i := 1; i <= 3; i++ {
		if err := a.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.Get("ckpt-000002")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleSections(2)) {
		t.Error("round-tripped sections differ")
	}
	keys, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"ckpt-000001", "ckpt-000002", "ckpt-000003"}) {
		t.Errorf("List = %v", keys)
	}
	// Namespaces are disjoint.
	if other, err := b.List(); err != nil || len(other) != 0 {
		t.Errorf("namespace b sees %v (%v)", other, err)
	}
	if _, err := b.Get("ckpt-000001"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("cross-namespace Get = %v, want ErrNotFound", err)
	}
	if err := a.Delete("ckpt-000001"); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("ckpt-000001"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
	if err := a.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	rep := s.Stats()
	if rep.Namespaces != 2 || rep.Store.Puts != 3 || rep.Store.Gets != 1 || rep.Store.Deletes != 1 {
		t.Errorf("server stats = %+v", rep)
	}
	if rep.Requests == 0 {
		t.Error("request counter not advancing")
	}
}

func TestServiceStatsEndpoint(t *testing.T) {
	_, ts := memService(t, Config{})
	c := client(t, ts.URL, "stats-ns")
	defer c.Close()
	if err := c.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Namespaces != 1 || rep.Store.Puts != 1 || rep.Store.BytesWritten <= 0 {
		t.Errorf("stats endpoint = %+v", rep)
	}
}

// A client that dies mid-upload, or sends garbage, must never create an
// object: the service verifies the CRC framing before the backend sees
// anything.
func TestServiceRejectsCorruptAndTruncatedUploads(t *testing.T) {
	s, ts := memService(t, Config{})
	// Garbage body: CRC verification fails.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/ns/objects/ckpt-000001",
		strings.NewReader("not a checkpoint object"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt upload = %d, want 400", resp.StatusCode)
	}
	// Truncated body against a larger declared length: the handler sees
	// an unexpected EOF and commits nothing. Driven through the handler
	// directly so the "connection" can die mid-body.
	blob := store.EncodeSections(sampleSections(1))
	hr := httptest.NewRequest(http.MethodPut, "/v1/ns/objects/ckpt-000002",
		io.MultiReader(strings.NewReader(string(blob[:len(blob)/2])), errReader{}))
	hr.ContentLength = int64(len(blob))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, hr)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("truncated upload = %d, want 400", rec.Code)
	}
	// Neither attempt committed an object.
	c := client(t, ts.URL, "ns")
	defer c.Close()
	keys, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("rejected uploads left objects behind: %v", keys)
	}
}

// errReader simulates a client connection dying mid-upload.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

func TestServiceRejectsInvalidNames(t *testing.T) {
	_, ts := memService(t, Config{})
	for _, path := range []string{
		"/v1/../objects/k",      // traversal namespace
		"/v1/%2e%2e/objects/k",  // encoded traversal namespace
		"/v1/ns/objects/%2e%2e", // encoded traversal key
		"/v1/ns/objects/a%2Fb",  // encoded separator in key
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+path,
			strings.NewReader(string(store.EncodeSections(sampleSections(1)))))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Errorf("%s accepted with %d", path, resp.StatusCode)
		}
	}
}

// gatedBackend blocks Puts until released (load-shedding and shutdown
// tests). The service stores through PutBlob, which the embedded Memory
// would otherwise serve ungated.
type gatedBackend struct {
	*store.Memory
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gatedBackend) wait() {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
}

func (g *gatedBackend) Put(key string, sections []store.Section) error {
	g.wait()
	return g.Memory.Put(key, sections)
}

func (g *gatedBackend) PutBlob(key string, blob []byte) error {
	g.wait()
	return g.Memory.PutBlob(key, blob)
}

func TestServiceShedsLoadPastInFlightBound(t *testing.T) {
	gate := &gatedBackend{Memory: store.NewMemory(), gate: make(chan struct{}), entered: make(chan struct{})}
	s := NewWithFactory(Config{MaxInFlight: 1}, func(ns string) (store.Backend, error) {
		return gate, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	blob := store.EncodeSections(sampleSections(1))
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/ns/objects/ckpt-000001",
			strings.NewReader(string(blob)))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				err = fmt.Errorf("first put = %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	<-gate.entered // the single slot is now occupied
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/ns/objects/ckpt-000002",
		strings.NewReader(string(blob)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-bound request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Stats().Rejected)
	}
	// The retrying client rides through shedding once capacity frees up.
	c := client(t, ts.URL, "ns")
	defer c.Close()
	if err := c.Put("ckpt-000003", sampleSections(3)); err != nil {
		t.Fatal(err)
	}
}

func TestServiceGracefulShutdownDrainsInFlight(t *testing.T) {
	gate := &gatedBackend{Memory: store.NewMemory(), gate: make(chan struct{}), entered: make(chan struct{})}
	s := NewWithFactory(Config{}, func(ns string) (store.Backend, error) {
		return gate, nil
	})
	ready := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ListenAndServe("127.0.0.1:0", ready) }()
	addr := <-ready

	blob := store.EncodeSections(sampleSections(7))
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPut, "http://"+addr+"/v1/ns/objects/ckpt-000001",
			strings.NewReader(string(blob)))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				err = fmt.Errorf("in-flight put = %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	<-gate.entered
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin draining
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
	// The object committed during drain is durable in the backend.
	if _, err := gate.Memory.Get("ckpt-000001"); err != nil {
		t.Errorf("drained write lost: %v", err)
	}
}

// Shutdown must also drain requests that arrived through Handler()
// directly (httptest, embedders' own listeners) — http.Server.Shutdown
// only covers connections the service accepted itself.
func TestServiceShutdownDrainsHandlerRequests(t *testing.T) {
	gate := &gatedBackend{Memory: store.NewMemory(), gate: make(chan struct{}), entered: make(chan struct{})}
	s := NewWithFactory(Config{}, func(ns string) (store.Backend, error) {
		return gate, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blob := store.EncodeSections(sampleSections(2))
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/ns/objects/ckpt-000001",
			strings.NewReader(string(blob)))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				err = fmt.Errorf("in-flight put = %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	<-gate.entered
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	// New requests are refused while draining.
	resp, err := http.Get(ts.URL + "/v1/ns/objects/ckpt-000001")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("request during drain = %d, want 503", resp.StatusCode)
		}
	}
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight handler request not drained: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The write committed before the backend was closed.
	if _, err := gate.Memory.Get("ckpt-000001"); err != nil {
		t.Errorf("drained write lost: %v", err)
	}
	// Lifetime totals survive shutdown.
	if rep := s.Stats(); rep.Store.Puts != 1 {
		t.Errorf("post-shutdown stats = %+v", rep)
	}
}

// A torn object on the service's disk (the observable state after a
// SIGKILL mid-write on a non-atomic filesystem, or plain corruption) is
// never served: the backend's CRC verification fails the Get and the
// client sees an error, not bytes.
func TestServiceNeverServesTornObjects(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Store: store.Config{Kind: store.KindFile, Dir: root}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	c := client(t, ts.URL, "torn")
	c.MaxAttempts = 2
	defer c.Close()
	if err := c.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	// Tear the committed file in place.
	path := filepath.Join(root, "torn", "ckpt-000001")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("ckpt-000001"); err == nil {
		t.Fatal("torn object served")
	}
	// And a SIGKILL mid-Put cannot even reach this state on the file
	// backend: writes land in a .tmp file and only an atomic rename
	// publishes them — the key either has the previous object or none.
	// The rejected-upload test covers the network half (partial body
	// never commits).
}

func TestServicePerNamespaceDirectories(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Store: store.Config{Kind: store.KindFile, Dir: root}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	for _, ns := range []string{"rank-0", "rank-1"} {
		c := client(t, ts.URL, ns)
		if err := c.Put("ckpt-000001", sampleSections(1)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	for _, ns := range []string{"rank-0", "rank-1"} {
		if _, err := os.Stat(filepath.Join(root, ns, "ckpt-000001")); err != nil {
			t.Errorf("namespace %s not rooted in its own directory: %v", ns, err)
		}
	}
}

func TestServiceConfigValidation(t *testing.T) {
	if _, err := New(Config{Store: store.Config{Kind: store.KindRemote, Addr: "x"}}); err == nil {
		t.Error("remote-backed service accepted (proxy loop)")
	}
	if _, err := New(Config{Store: store.Config{Kind: store.KindFile}}); err == nil {
		t.Error("file-backed service without a root dir accepted")
	}
	if _, err := New(Config{Store: store.Config{Kind: store.KindMemory}}); err != nil {
		t.Errorf("memory-backed service should not need a dir: %v", err)
	}
}

// Race pin: many clients, overlapping namespaces and keys, stats reads.
func TestServiceConcurrentClientsRace(t *testing.T) {
	s, ts := memService(t, Config{MaxInFlight: 32})
	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ns := fmt.Sprintf("ns-%d", i%3) // namespaces shared across clients
			c := client(t, ts.URL, ns)
			defer c.Close()
			for j := 0; j < 15; j++ {
				key := fmt.Sprintf("ckpt-%06d", j%5)
				switch j % 4 {
				case 0, 1:
					c.Put(key, sampleSections(byte(i*16+j)))
				case 2:
					c.Get(key)
				case 3:
					c.List()
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
				http.Get(ts.URL + "/v1/stats")
			}
		}
	}()
	wg.Wait()
	close(stop)
	if rep := s.Stats(); rep.Store.Puts == 0 {
		t.Errorf("no writes recorded: %+v", rep)
	}
}
