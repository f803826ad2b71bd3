package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// blobService is a checkpoint service reduced to what crosses the wire:
// it keeps each PUT body as sent and answers a GET with those bytes,
// unverified, so a test can plant a corrupt object underneath a Remote.
type blobService struct {
	mu      sync.Mutex
	objects map[string][]byte
	flushes int
	srv     *httptest.Server
}

func newBlobService(t *testing.T) *blobService {
	t.Helper()
	s := &blobService{objects: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/{ns}/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.plant(r.PathValue("key"), body)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/{ns}/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		blob, ok := s.objects[r.PathValue("key")]
		s.mu.Unlock()
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Write(blob)
	})
	mux.HandleFunc("POST /v1/{ns}/flush", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.flushes++
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *blobService) plant(key string, blob []byte) {
	s.mu.Lock()
	s.objects[key] = blob
	s.mu.Unlock()
}

// blobLayer is one row of the blob/section conformance table.
type blobLayer struct {
	name string
	b    Backend
	// plant stores blob under key beneath the layer, bypassing it.
	plant func(key string, blob []byte)
	// flushed reports what the layer's Flush was documented to reach.
	flushed func(key string) error
	// own are the failpoint sites SetFaults arms on this layer alone.
	own []string
	// recorded are op recorders SetObs arms; silent are layer prefixes
	// it must leave unarmed.
	recorded, silent []string
}

// replicatedLayer is 3 memory replicas under the quorum tier, with the
// hooks every row over it shares.
func replicatedLayer(t *testing.T) (*Replicated, func(string, []byte), func(string) error) {
	rep, mems := newReplicatedMemory(t, ReplicatedOptions{HedgeAfter: -1})
	t.Cleanup(func() { rep.Close() })
	plant := func(key string, blob []byte) {
		for _, m := range mems {
			m.PutBlob(key, blob)
		}
	}
	// Flush is the barrier through every replica's queue: each one holds
	// what was put before it.
	flushed := func(key string) error {
		for i, m := range mems {
			if _, err := m.GetBlob(key); err != nil {
				return fmt.Errorf("replica %d after Flush: %w", i, err)
			}
		}
		return nil
	}
	return rep, plant, flushed
}

func blobLayers(t *testing.T) []blobLayer {
	svc := newBlobService(t)
	remote := fastRemote(t, svc.srv.URL, "conformance")
	t.Cleanup(func() { remote.Close() })
	rep, plant, flushed := replicatedLayer(t)
	under, plantUnder, flushedUnder := replicatedLayer(t)
	return []blobLayer{
		{
			name:  "remote",
			b:     remote,
			plant: svc.plant,
			flushed: func(string) error {
				svc.mu.Lock()
				defer svc.mu.Unlock()
				if svc.flushes != 1 {
					return fmt.Errorf("service saw %d flushes, want 1", svc.flushes)
				}
				return nil
			},
			own:      []string{SiteRemoteDo},
			recorded: []string{"store.remote.get"},
		},
		{
			name:     "replicated",
			b:        rep,
			plant:    plant,
			flushed:  flushed,
			own:      []string{SiteReplicaGet(0), SiteReplicaGet(1), SiteReplicaGet(2)},
			recorded: []string{"store.replicated.get", "store.memory.get"}, // forwarded to the replicas
		},
		{
			name:     "cached over replicated",
			b:        NewCached(under, 1<<20),
			plant:    plantUnder,
			flushed:  flushedUnder, // forwarded to the quorum tier
			own:      []string{SiteCachedLeader},
			recorded: []string{"store.cached.get"},
			silent:   []string{"store.replicated.", "store.memory."},
		},
	}
}

// TestBlobLayerConformance: Remote, Replicated and a cache over
// Replicated are blob stores whose section methods are the codec around
// the blob path, so the two paths agree byte for byte, a corrupt object
// is ErrCorrupt on both, and each layer forwards DependenciesOf, Flush,
// SetFaults and SetObs as documented.
func TestBlobLayerConformance(t *testing.T) {
	for _, l := range blobLayers(t) {
		t.Run(l.name, func(t *testing.T) {
			bs, ok := l.b.(BlobStore)
			if !ok {
				t.Fatal("not a BlobStore")
			}
			one, two := EncodeSections(sampleSections(1)), EncodeSections(sampleSections(2))
			if err := bs.PutBlob("ckpt-000001", bytes.Clone(one)); err != nil {
				t.Fatal(err)
			}
			got, err := l.b.Get("ckpt-000001")
			if err != nil || !bytes.Equal(EncodeSections(got), one) {
				t.Fatalf("PutBlob → Get = %v, %v; want the blob's sections", got, err)
			}
			if err := l.b.Put("ckpt-000002", sampleSections(2)); err != nil {
				t.Fatal(err)
			}
			if blob, err := bs.GetBlob("ckpt-000002"); err != nil || !bytes.Equal(blob, two) {
				t.Fatalf("Put → GetBlob = %d bytes, %v; want the encoded sections", len(blob), err)
			}
			if err := l.b.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := l.flushed("ckpt-000002"); err != nil {
				t.Error(err)
			}

			bad := EncodeSections(sampleSections(3))
			bad[20] ^= 0xFF
			l.plant("ckpt-000003", bad)
			if _, err := l.b.Get("ckpt-000003"); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get of a corrupt object = %v, want ErrCorrupt", err)
			}
			if _, err := bs.GetBlob("ckpt-000003"); !errors.Is(err, ErrCorrupt) {
				t.Errorf("GetBlob of a corrupt object = %v, want ErrCorrupt", err)
			}

			if deps, err := DependenciesOf(l.b, "ckpt-000002"); err != nil || !reflect.DeepEqual(deps, []string{"ckpt-000002"}) {
				t.Errorf("DependenciesOf = %v, %v; want the key alone", deps, err)
			}

			// SetFaults arms the layer's own sites, not the base sites of
			// the stores beneath it.
			l.plant("ckpt-000004", EncodeSections(sampleSections(4)))
			reg := faultinject.NewRegistry(1)
			for _, site := range append([]string{SitePut, SiteGet}, l.own...) {
				reg.Arm(faultinject.Failpoint{Site: site, Action: faultinject.ActionError, From: 1})
			}
			InjectFaults(l.b, reg)
			if _, err := bs.GetBlob("ckpt-000004"); !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("GetBlob with the layer's sites armed = %v, want an injected failure", err)
			}
			events := reg.Events()
			for _, e := range events {
				if !slices.Contains(l.own, e.Site) {
					t.Errorf("site %s fired: SetFaults reached beneath the layer", e.Site)
				}
			}
			if len(events) == 0 {
				t.Error("no failpoint fired")
			}
			InjectFaults(l.b, nil)
			if _, err := bs.GetBlob("ckpt-000004"); err != nil {
				t.Errorf("GetBlob after disarming: %v", err)
			}

			// SetObs arms the layer's recorders, forwarding only where the
			// layer documents it.
			l.plant("ckpt-000005", EncodeSections(sampleSections(5)))
			o := obs.New()
			InjectObs(l.b, o)
			if _, err := bs.GetBlob("ckpt-000005"); err != nil {
				t.Fatal(err)
			}
			snap := o.Snapshot()
			for _, name := range l.recorded {
				if h := snap.Histograms[name+".ns"]; h.Count == 0 {
					t.Errorf("%s recorded nothing", name)
				}
			}
			for name, h := range snap.Histograms {
				for _, prefix := range l.silent {
					if strings.HasPrefix(name, prefix) && h.Count > 0 {
						t.Errorf("%s recorded %d operations: SetObs reached beneath the layer", name, h.Count)
					}
				}
			}
			InjectObs(l.b, nil)
		})
	}
}

// TestBlobLayersEncodeOnce: below the decorators an object has one
// encoding. A Put through a cache over the quorum tier leaves the same
// bytes — one backing array — in the cache and on every replica, and a
// miss caches the array the replicas returned.
func TestBlobLayersEncodeOnce(t *testing.T) {
	rep, mems := newReplicatedMemory(t, ReplicatedOptions{})
	defer rep.Close()
	c := NewCached(rep, 1<<20)
	if err := c.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	cached := c.cachedBlob("ckpt-000001")
	if cached == nil {
		t.Fatal("the Put was not cached")
	}
	for i, m := range mems {
		stored, err := m.GetBlob("ckpt-000001")
		if err != nil {
			t.Fatal(err)
		}
		if &stored[0] != &cached[0] {
			t.Errorf("replica %d holds another encoding than the cache", i)
		}
	}
	miss := NewCached(rep, 1<<20)
	if _, err := miss.Get("ckpt-000001"); err != nil {
		t.Fatal(err)
	}
	if got := miss.cachedBlob("ckpt-000001"); got == nil || &got[0] != &cached[0] {
		t.Error("a miss cached a re-encoding instead of the replicas' blob")
	}
}

// bigSections is a 256 KiB object of 8 × 32 KiB sections, the object the
// service's allocation pins use.
func bigSections() []Section {
	sections := make([]Section, 8)
	for i := range sections {
		data := make([]byte, 32<<10)
		for j := range data {
			data[j] = byte(i*31 + j*7)
		}
		sections[i] = Section{Name: fmt.Sprintf("s%d", i), Data: data}
	}
	return sections
}

// allocatedPerByte reports the bytes op allocates per byte of an object
// of size bytes, averaged over n runs after one warm-up run.
func allocatedPerByte(size, n int, op func() error) (float64, error) {
	if err := op(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n*size), nil
}

// discardPuts is a store whose Puts keep nothing, so an allocation row
// over it prices the layer above alone.
type discardPuts struct{ Backend }

func (discardPuts) Put(string, []Section) error { return nil }

// TestBlobLayerAllocations pins what moving one blob through the quorum
// tier and the cache buys, in bytes allocated per object byte for a
// 256 KiB object over 3 memory replicas. When every replica stored and
// returned sections these read 4.10 (Put), 4.07 (Get), 6.10 (scrub of a
// converged key), 5.10 (cache miss) and 1.00 (cache hit): a staging copy
// plus one encode per replica, a decode and a re-encode per answer, and
// an encode of the miss for the cache. Then a Put was its one encode, and
// a Get, a miss or a hit 1.00, a copy of the sections out of the shared
// blob; Async Put read 1.00, a staging copy, and an Incremental keyframe
// 2.25, its encoding plus a copy of the diff basis. Under Backend's
// ownership rule nothing that crosses a layer is copied: a Get of any of
// them decodes in place, Async queues the caller's sections, a keyframe is
// its encoding alone (1.25: each 32 KiB section plus its encoding byte
// fills five 8 KiB pages), and a delta over unchanged sections diffs the
// previous put's own slices.
func TestBlobLayerAllocations(t *testing.T) {
	sections := bigSections()
	size := int(EncodedSize(sections))
	rep, _ := newReplicatedMemory(t, ReplicatedOptions{HedgeAfter: -1})
	defer rep.Close()
	if err := rep.Put("k", sections); err != nil {
		t.Fatal(err)
	}
	small := NewCached(rep, 1<<10) // smaller than the object: every Get misses
	hot := NewCached(rep, 1<<20)
	if err := hot.Put("k", sections); err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	if err := mem.Put("k", sections); err != nil {
		t.Fatal(err)
	}
	async := NewAsync(discardPuts{NewMemory()})
	defer async.Close()
	keyframes := NewIncremental(discardPuts{NewMemory()}, 1, 0)
	inc := NewIncremental(discardPuts{NewMemory()}, 1<<30, 0) // one keyframe, then deltas
	puts := 0
	get := func(b Backend) func() error {
		return func() error { _, err := b.Get("k"); return err }
	}
	for _, row := range []struct {
		name  string
		op    func() error
		bound float64
	}{
		{"Replicated Put+Flush", func() error {
			if err := rep.Put("k", sections); err != nil {
				return err
			}
			return rep.Flush()
		}, 1.25},
		{"Replicated Get", get(rep), 0.1},
		{"Replicated ScrubOnce", func() error { _, _, err := rep.ScrubOnce(); return err }, 0.1},
		{"Cached miss", get(small), 0.1},
		{"Cached hit", get(hot), 0.1},
		{"Memory Get", get(mem), 0.1},
		{"Async Put+Flush", func() error {
			if err := async.Put("k", sections); err != nil {
				return err
			}
			return async.Flush()
		}, 0.1},
		{"Incremental keyframe", func() error { return keyframes.Put("k", sections) }, 1.5},
		{"Incremental delta, unchanged sections", func() error {
			puts++
			return inc.Put(fmt.Sprintf("ckpt-%06d", puts), sections)
		}, 0.1},
	} {
		got, err := allocatedPerByte(size, 20, row.op)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		t.Logf("%s: %.2f bytes allocated per object byte", row.name, got)
		if got > row.bound {
			t.Errorf("%s allocates %.2f bytes per object byte, want at most %v", row.name, got, row.bound)
		}
	}
}
