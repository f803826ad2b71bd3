package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
	"autocheck/internal/store"
)

// bareBackend hides a backend's store.BlobStore methods, so the service
// reaches it through the section fallback.
type bareBackend struct{ store.Backend }

// accounting is what a backend reported, zeros left out: its Stats,
// every store.* counter, and how many operations each store.* latency
// histogram saw.
func accounting(b store.Backend, reg *obs.Registry) map[string]int64 {
	st := b.Stats()
	all := map[string]int64{
		"Puts": st.Puts, "Gets": st.Gets, "Deletes": st.Deletes,
		"BytesWritten": st.BytesWritten, "BytesRead": st.BytesRead, "SectionsWritten": st.SectionsWritten,
		"CacheHits": st.CacheHits, "CacheMisses": st.CacheMisses,
	}
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		all[name] = v
	}
	for name, h := range snap.Histograms {
		all[name] = h.Count
	}
	out := map[string]int64{}
	for name, v := range all {
		if v != 0 && (!strings.Contains(name, ".") || strings.HasPrefix(name, "store.")) {
			out[name] = v
		}
	}
	return out
}

// TestBlobDispatchAcrossBackends runs one PUT/GET script over both sides
// of the store.BlobStore dispatch — Memory and File store the uploaded
// blob, a cache over Memory and a bare Backend take sections —
// and requires the same answers and the same accounting from each. The
// wanted accounting is what the service recorded when it decoded every
// upload and re-encoded every download.
func TestBlobDispatchAcrossBackends(t *testing.T) {
	good := store.EncodeSections(sampleSections(1))
	flipped := store.EncodeSections(sampleSections(2))
	flipped[len(flipped)/2] ^= 0x01
	torn := store.EncodeSections(sampleSections(3))
	// What a one-blob base backend records: one good put and a torn one
	// (663 bytes, the seeded cut of torn, reach the medium), two good gets
	// and one of the torn object.
	n, cut := int64(len(good)), int64(663)
	base := func(layer string) map[string]int64 {
		return map[string]int64{
			"Puts": 1, "Gets": 3, "BytesWritten": n, "BytesRead": 2*n + cut, "SectionsWritten": 3,
			layer + ".put.ns": 2, layer + ".put.bytes": n + cut, layer + ".put.err.injected": 1,
			layer + ".get.ns": 3, layer + ".get.bytes": 2*n + cut, layer + ".get.err.corrupt": 1,
		}
	}
	// The cache serves both good gets and passes the third to memory.
	cached := map[string]int64{
		"Puts": 1, "Gets": 3, "BytesWritten": n, "BytesRead": 2*n + cut, "SectionsWritten": 3,
		"CacheHits": 2, "CacheMisses": 1, "store.cache.hits": 2, "store.cache.misses": 1,
		"store.cached.put.ns": 2, "store.cached.put.bytes": n, "store.cached.put.err.injected": 1,
		"store.cached.get.ns": 3, "store.cached.get.bytes": 2 * n, "store.cached.get.err.corrupt": 1,
		"store.memory.put.ns": 2, "store.memory.put.bytes": n + cut, "store.memory.put.err.injected": 1,
		"store.memory.get.ns": 1, "store.memory.get.bytes": cut, "store.memory.get.err.corrupt": 1,
	}
	for _, tc := range []struct {
		name string
		cfg  store.Config
		bare bool
		want map[string]int64
	}{
		{"memory", store.Config{Kind: store.KindMemory}, false, base("store.memory")},
		{"file", store.Config{Kind: store.KindFile}, false, base("store.file")},
		{"cached memory", store.Config{Kind: store.KindMemory, CacheMB: 8}, false, cached},
		{"bare memory", store.Config{Kind: store.KindMemory}, true, base("store.memory")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, faults := obs.New(), faultinject.NewRegistry(1)
			// The flipped upload never reaches the backend, so the second
			// store.put hit is the third PUT.
			faults.Arm(faultinject.Failpoint{Site: store.SitePut, Action: faultinject.ActionTorn, Nth: 2})
			cfg := tc.cfg
			cfg.Obs, cfg.Faults = reg, faults
			if cfg.Kind != store.KindMemory {
				cfg.Dir = t.TempDir()
			}
			b, err := store.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.bare {
				b = bareBackend{b}
			}
			s := NewWithFactory(Config{}, func(string) (store.Backend, error) { return b, nil })
			defer s.Shutdown(context.Background())
			step := func(name, method string, body []byte, code int, want []byte) {
				t.Helper()
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest(method, "/v1/ns/objects/k", bytes.NewReader(body)))
				if w.Code != code {
					t.Fatalf("%s = %d %s, want %d", name, w.Code, w.Body, code)
				}
				if want != nil && !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("%s returned %d bytes that are not the uploaded blob", name, w.Body.Len())
				}
			}
			step("put", http.MethodPut, good, http.StatusNoContent, nil)
			step("get", http.MethodGet, nil, http.StatusOK, good)
			step("bit-flipped put", http.MethodPut, flipped, http.StatusBadRequest, nil)
			step("get after the bit-flipped put", http.MethodGet, nil, http.StatusOK, good)
			step("torn put", http.MethodPut, torn, http.StatusInternalServerError, nil)
			step("get after the torn put", http.MethodGet, nil, http.StatusInternalServerError, nil)
			if got := accounting(b, reg); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("accounting = %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// TestPutRejectsTrailingBytes: a valid object with bytes appended after
// its last section and the CRC resealed over them is refused with 400 and
// never stored — a service that kept it would hold two encodings of one
// object.
func TestPutRejectsTrailingBytes(t *testing.T) {
	mem := store.NewMemory()
	s := NewWithFactory(Config{}, func(string) (store.Backend, error) { return mem, nil })
	defer s.Shutdown(context.Background())
	good := store.EncodeSections([]store.Section{{Name: "a", Data: []byte("xyz")}})
	padded := append(bytes.Clone(good[:len(good)-4]), 0, 0, 0, 0)
	padded = binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded))
	for _, step := range []struct {
		method string
		body   []byte
		code   int
	}{
		{http.MethodPut, padded, http.StatusBadRequest},
		{http.MethodGet, nil, http.StatusNotFound},
		{http.MethodPut, good, http.StatusNoContent},
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(step.method, "/v1/ns/objects/k", bytes.NewReader(step.body)))
		if w.Code != step.code {
			t.Fatalf("%s = %d %s, want %d", step.method, w.Code, w.Body, step.code)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so only the
// handler's own allocations are measured.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// allocatedPerByte reports the bytes op allocates per byte of an object
// of size bytes, averaged over n runs after one warm-up run.
func allocatedPerByte(size, n int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n*size)
}

// TestBlobPathAllocations pins what moving sealed blobs bought: bytes
// allocated per object byte for a 256 KiB object of 8 × 32 KiB sections
// over the memory backend. When the service decoded and re-encoded every
// object these read 9.6 (handler PUT), 5.1 (handler GET) and 24.7 (a
// Remote Put+Get round trip).
func TestBlobPathAllocations(t *testing.T) {
	sections := make([]store.Section, 8)
	for i := range sections {
		data := make([]byte, 32<<10)
		for j := range data {
			data[j] = byte(i*31 + j*7)
		}
		sections[i] = store.Section{Name: fmt.Sprintf("s%d", i), Data: data}
	}
	blob := store.EncodeSections(sections)
	s, ts := memService(t, Config{})
	serve := func(method string, body []byte) {
		s.Handler().ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(method, "/v1/ns/objects/k", bytes.NewReader(body)))
	}
	c := client(t, ts.URL, "rt")
	defer c.Close()
	var failed error
	for _, row := range []struct {
		name  string
		op    func()
		bound float64
	}{
		{"handler PUT", func() { serve(http.MethodPut, blob) }, 1.5},
		{"handler GET", func() { serve(http.MethodGet, nil) }, 0.25},
		{"Remote Put+Get", func() {
			if err := c.Put("k", sections); err != nil {
				failed = err
			}
			if _, err := c.Get("k"); err != nil {
				failed = err
			}
		}, 4},
	} {
		got := allocatedPerByte(len(blob), 20, row.op)
		if failed != nil {
			t.Fatalf("%s: %v", row.name, failed)
		}
		t.Logf("%s: %.2f bytes allocated per object byte", row.name, got)
		if got > row.bound {
			t.Errorf("%s allocates %.2f bytes per object byte, want at most %v", row.name, got, row.bound)
		}
	}
}

// TestStoredBlobsAreReadOnly: a GET writes out the blob the memory
// backend stores, while PUTs replace it and Corrupt flips bytes of it.
// Run under -race, any write into a blob a reader holds is a reported
// race; without it, a GET answering 200 with bytes that fail
// verification is the symptom.
func TestStoredBlobsAreReadOnly(t *testing.T) {
	mem := store.NewMemory()
	s := NewWithFactory(Config{}, func(string) (store.Backend, error) { return mem, nil })
	defer s.Shutdown(context.Background())
	blobs := [][]byte{store.EncodeSections(sampleSections(1)), store.EncodeSections(sampleSections(2))}
	serve := func(method string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(method, "/v1/ns/objects/k", bytes.NewReader(body)))
		return w
	}
	if w := serve(http.MethodPut, blobs[0]); w.Code != http.StatusNoContent {
		t.Fatalf("first put = %d", w.Code)
	}
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				w := serve(http.MethodGet, nil)
				if w.Code == http.StatusInternalServerError {
					continue // a corrupted object, refused
				}
				if _, err := store.VerifySections(w.Body.Bytes()); w.Code != http.StatusOK || err != nil {
					t.Errorf("get = %d, %v", w.Code, err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if w := serve(http.MethodPut, blobs[i%2]); w.Code != http.StatusNoContent {
				t.Errorf("put = %d", w.Code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			mem.Corrupt("k", i)
		}
	}()
	wg.Wait()
}
