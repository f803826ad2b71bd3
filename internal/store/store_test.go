package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// copySections deep-copies sections, for a test that keeps what it put
// apart from what the store now owns.
func copySections(sections []Section) []Section {
	out := make([]Section, len(sections))
	for i, s := range sections {
		out[i] = Section{Name: s.Name, Data: append([]byte(nil), s.Data...)}
	}
	return out
}

func sampleSections(seed byte) []Section {
	big := make([]byte, 2048)
	for i := range big {
		big[i] = byte(i) ^ seed
	}
	return []Section{
		{Name: "~ckpt", Data: []byte{seed, 1, 2, 3}},
		{Name: "x", Data: []byte{seed, 0xAA}},
		{Name: "arr", Data: big},
	}
}

// openAll returns one fresh instance of every backend/decorator
// combination under test, keyed by a descriptive name.
func openAll(t *testing.T) map[string]Backend {
	t.Helper()
	file, err := NewFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	fileSync, err := NewFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	asyncInner, err := NewFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	cachedFile, err := NewFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	svc := newFakeService(t)
	remote := fastRemote(t, svc.srv.URL, "all")
	remoteCached := fastRemote(t, svc.srv.URL, "all-cached")
	replicated, err := NewReplicated([]Backend{NewMemory(), NewMemory(), NewMemory()}, ReplicatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replicatedRemote, err := NewReplicated([]Backend{
		fastRemote(t, svc.srv.URL, "all-rep-r0"),
		fastRemote(t, svc.srv.URL, "all-rep-r1"),
		fastRemote(t, svc.srv.URL, "all-rep-r2"),
	}, ReplicatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"memory":             NewMemory(),
		"file":               file,
		"file-sync":          fileSync,
		"async-file":         NewAsync(asyncInner),
		"incremental-memory": NewIncremental(NewMemory(), 3, 64),
		"async-incremental":  NewAsync(NewIncremental(NewMemory(), 3, 64)),
		"cached-memory":      NewCached(NewMemory(), 1<<20),
		"cached-file":        NewCached(cachedFile, 1<<20),
		"remote":             remote,
		"remote-cached":      NewCached(remoteCached, 1<<20),
		"replicated":         replicated,
		"replicated-remote":  replicatedRemote,
	}
}

func TestRoundtripAllBackends(t *testing.T) {
	for name, b := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			for i := byte(1); i <= 5; i++ {
				key := fmt.Sprintf("ckpt-%06d", i)
				if err := b.Put(key, sampleSections(i)); err != nil {
					t.Fatalf("Put %s: %v", key, err)
				}
			}
			keys, err := b.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 5 {
				t.Fatalf("List = %v, want 5 keys", keys)
			}
			if !reflect.DeepEqual(keys, append([]string(nil), "ckpt-000001", "ckpt-000002", "ckpt-000003", "ckpt-000004", "ckpt-000005")) {
				t.Errorf("List not sorted: %v", keys)
			}
			for i := byte(1); i <= 5; i++ {
				got, err := b.Get(fmt.Sprintf("ckpt-%06d", i))
				if err != nil {
					t.Fatalf("Get %d: %v", i, err)
				}
				if want := sampleSections(i); !reflect.DeepEqual(got, want) {
					t.Errorf("Get %d: sections differ", i)
				}
			}
			if _, err := b.Get("ckpt-999999"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing = %v, want ErrNotFound", err)
			}
			st := b.Stats()
			if st.Puts != 5 || st.Gets < 5 || st.BytesWritten <= 0 {
				t.Errorf("Stats = %+v", st)
			}
		})
	}
}

func TestDeleteAllBackends(t *testing.T) {
	for name, b := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete("ckpt-000001"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("ckpt-000001"); err == nil {
				t.Error("Get after Delete succeeded")
			}
			if err := b.Delete("ckpt-000001"); !errors.Is(err, ErrNotFound) {
				t.Errorf("second Delete = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestPutOverwrites(t *testing.T) {
	for name, b := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put("k", sampleSections(1)); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("k", sampleSections(9)); err != nil {
				t.Fatal(err)
			}
			// The replicated tier acks the overwrite at W of N and compares
			// copies without versions: a read could still pair the new copy
			// with a replica that has not applied it and settle the tie on
			// the old one. Flush is the barrier through every replica queue.
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sampleSections(9)) {
				t.Error("overwrite not visible")
			}
		})
	}
}

// Every file-backed backend must reject a flipped bit anywhere in the
// object (the validation protocol's corruption experiments).
func TestFileBackendRejectsFlippedBit(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFile(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-000001")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get("ckpt-000001"); err == nil {
			t.Errorf("flipped bit at %d accepted", off)
		}
	}
}

func TestFileBackendRejectsTornWrite(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFile(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-000001")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("ckpt-000001"); err == nil {
		t.Error("torn (truncated) object accepted")
	}
}

// TestTornObjectsReadCorrupt: an object cut anywhere short of its end —
// inside its 16-byte framing or after it — reads as ErrCorrupt, the class
// a restart falls back past and a replicated read repairs, and never as
// an I/O error.
func TestTornObjectsReadCorrupt(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFile(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, sections := range map[string][]Section{
		"empty":   nil,
		"one":     {{Name: "x", Data: []byte{1}}},
		"sampled": sampleSections(1),
	} {
		if err := b.Put(name, sections); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get(name); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut to %d of %d bytes: Get = %v, want ErrCorrupt", name, cut, len(data), err)
			}
		}
	}
}

func TestMemoryBackendRejectsCorruption(t *testing.T) {
	m := NewMemory()
	if err := m.Put("k", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	if !m.Corrupt("k", 40) {
		t.Fatal("Corrupt found no object")
	}
	if _, err := m.Get("k"); err == nil {
		t.Error("corrupted in-memory object accepted")
	}
}

// Concurrent Puts to one key must each commit a whole object: the last
// rename wins, and no Put writes into another's temp file. Concurrent
// Gets of the committed key must see one whole object throughout.
func TestConcurrentPutsSameKey(t *testing.T) {
	for name, b := range baseBackends(t, nil) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put("k", sampleSections(1)); err != nil {
				t.Fatal(err)
			}
			// whole reports whether got is exactly one Put's sections.
			whole := func(got []Section) bool {
				return len(got) == 3 && len(got[0].Data) > 0 && reflect.DeepEqual(got, sampleSections(got[0].Data[0]))
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(2)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						if err := b.Put("k", sampleSections(byte(w*16+i+1))); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						got, err := b.Get("k")
						if err != nil {
							t.Errorf("Get of committed key during overwrites: %v", err)
							return
						}
						if !whole(got) {
							t.Error("Get during overwrites returned a mixed object")
							return
						}
					}
				}()
			}
			wg.Wait()
			got, err := b.Get("k")
			if err != nil {
				t.Fatalf("object unreadable after concurrent overwrites: %v", err)
			}
			if !whole(got) {
				t.Error("object after concurrent overwrites is not one Put's sections")
			}
		})
	}
}

// A Put that crashed before its rename leaves only its temp file, which
// List must not report as an object.
func TestFileUncommittedObjectInvisible(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFile(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000002.123456"+tmpSuffix), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"ckpt-000001"}) {
		t.Errorf("List = %v, want only the committed object", keys)
	}
}

// failingBackend fails every Nth Put, for async error propagation tests.
// PutBlob counts too, so a blob writer cannot slip past the embedded
// Memory's promoted method.
type failingBackend struct {
	*Memory
	mu    sync.Mutex
	puts  int
	every int
}

func (f *failingBackend) Put(key string, sections []Section) error {
	return f.PutBlob(key, EncodeSections(sections))
}

func (f *failingBackend) PutBlob(key string, blob []byte) error {
	f.mu.Lock()
	f.puts++
	n := f.puts
	fail := f.every > 0 && n%f.every == 0
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("injected write failure at put %d", n)
	}
	return f.Memory.PutBlob(key, blob)
}

func TestAsyncDeferredErrorSurfaces(t *testing.T) {
	a := NewAsync(&failingBackend{Memory: NewMemory(), every: 2})
	if err := a.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("ckpt-000002", sampleSections(2)); err != nil {
		t.Fatal(err) // enqueued; the failure is deferred
	}
	if err := a.Flush(); err == nil {
		t.Error("Flush swallowed the deferred write error")
	}
	if err := a.Put("ckpt-000003", sampleSections(3)); err == nil {
		t.Error("Put after deferred error succeeded")
	}
	if err := a.Close(); err == nil {
		t.Error("Close swallowed the deferred write error")
	}
}

func TestAsyncManyWritesDrain(t *testing.T) {
	inner := NewMemory()
	a := NewAsync(inner)
	for i := 0; i < 50; i++ {
		if err := a.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := inner.Stats(); st.Puts != 50 {
		t.Errorf("inner puts = %d, want 50", st.Puts)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent Puts and reads must be race-free: sync.WaitGroup forbids a
// Wait concurrent with an Add from zero, so the read-side drain has to
// serialize with Put. Run under -race to catch regressions.
func TestAsyncConcurrentReadersAndWriters(t *testing.T) {
	a := NewAsync(NewMemory())
	defer a.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("ckpt-%02d%04d", w, i)
				if err := a.Put(key, sampleSections(byte(i))); err != nil {
					t.Error(err)
					return
				}
				// A read started after Put returned must observe the write.
				if _, err := a.Get(key); err != nil {
					t.Errorf("Get %s after Put: %v", key, err)
					return
				}
				a.Stats()
				if _, err := a.List(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestIncrementalReconstruction(t *testing.T) {
	inner := NewMemory()
	inc := NewIncremental(inner, 4, 64)
	big := make([]byte, 1024)
	want := make(map[string][]Section)
	for i := 1; i <= 10; i++ {
		key := fmt.Sprintf("ckpt-%06d", i)
		// "stable" never changes; big changes one chunk-sized region per
		// put; "counter" changes every put.
		copy(big[(i%4)*128:], bytes.Repeat([]byte{byte(i)}, 16))
		sections := []Section{
			{Name: "stable", Data: []byte{1, 2, 3, 4}},
			{Name: "big", Data: append([]byte(nil), big...)},
			{Name: "counter", Data: []byte{byte(i)}},
		}
		want[key] = copySections(sections)
		if err := inc.Put(key, sections); err != nil {
			t.Fatal(err)
		}
	}
	for key, sections := range want {
		got, err := inc.Get(key)
		if err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
		if !reflect.DeepEqual(got, sections) {
			t.Errorf("Get %s: reconstruction differs", key)
		}
	}
	st := inc.Stats()
	if st.Keyframes != 3 || st.Deltas != 7 { // puts 1,5,9 are keyframes
		t.Errorf("keyframes=%d deltas=%d, want 3/7", st.Keyframes, st.Deltas)
	}
	if st.SectionsSkipped == 0 {
		t.Error("stable section never skipped")
	}
}

func TestIncrementalWritesFewerBytes(t *testing.T) {
	plainInner, incInner := NewMemory(), NewMemory()
	plain := Backend(plainInner)
	inc := NewIncremental(incInner, 8, 64)
	big := make([]byte, 4096)
	for i := 1; i <= 16; i++ {
		big[i] = byte(i) // one byte changes per iteration
		sections := []Section{
			{Name: "input", Data: make([]byte, 2048)}, // never changes
			{Name: "big", Data: append([]byte(nil), big...)},
		}
		key := fmt.Sprintf("ckpt-%06d", i)
		if err := plain.Put(key, copySections(sections)); err != nil {
			t.Fatal(err)
		}
		if err := inc.Put(key, sections); err != nil {
			t.Fatal(err)
		}
	}
	pw, iw := plainInner.Stats().BytesWritten, incInner.Stats().BytesWritten
	if iw >= pw {
		t.Errorf("incremental wrote %d bytes, plain %d — expected a reduction", iw, pw)
	}
	// Both must still reconstruct the same final object.
	a, err := plain.Get("ckpt-000016")
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.Get("ckpt-000016")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("incremental reconstruction diverges from plain storage")
	}
}

// A delta left over from an earlier session must not resolve against a
// keyframe written over its base by a later session: without the
// predecessor-digest binding, Get would patch stale chunks onto the new
// keyframe and fabricate state that never existed.
func TestIncrementalStaleDeltaRejected(t *testing.T) {
	inner := NewMemory()
	inc := NewIncremental(inner, 4, 64)
	for i := 1; i <= 3; i++ {
		if err := inc.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A new session over the same store starts with fresh decorator state
	// and overwrites the keyframe; the surviving session-1 deltas now
	// reference base content that no longer exists.
	inc2 := NewIncremental(inner, 4, 64)
	if err := inc2.Put("ckpt-000001", sampleSections(9)); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"ckpt-000002", "ckpt-000003"} {
		if _, err := inc2.Get(stale); err == nil {
			t.Errorf("stale delta %s resolved against the overwritten keyframe", stale)
		}
	}
	got, err := inc2.Get("ckpt-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleSections(9)) {
		t.Error("new keyframe unreadable")
	}
}

// A delta written by the retired pre-digest format (kind byte 1) must be
// rejected explicitly, not misparsed with key bytes as a digest.
func TestIncrementalRejectsObsoleteDeltaFormat(t *testing.T) {
	inner := NewMemory()
	inc := NewIncremental(inner, 4, 64)
	if err := inc.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	old := []Section{
		{Name: "~incr", Data: append([]byte{1}, "ckpt-000001"...)},
		{Name: "x", Data: []byte{0, 1, 2}},
	}
	if err := inner.Put("ckpt-000002", old); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Get("ckpt-000002"); err == nil {
		t.Error("obsolete delta format accepted")
	}
}

// A failed delta write must not advance the diff basis: the next
// successful delta has to re-carry the changes the failed one lost, or
// reconstruction silently drops them.
func TestIncrementalFailedPutDoesNotAdvanceBasis(t *testing.T) {
	failing := &failingBackend{Memory: NewMemory()}
	inc := NewIncremental(failing, 8, 64)
	sections := func(v byte) []Section {
		return []Section{{Name: "x", Data: []byte{v, v, v, v}}}
	}
	if err := inc.Put("ckpt-000001", sections(1)); err != nil {
		t.Fatal(err)
	}
	failing.mu.Lock()
	failing.every = 1 // fail the next put
	failing.mu.Unlock()
	if err := inc.Put("ckpt-000002", sections(2)); err == nil {
		t.Fatal("injected failure not reported")
	}
	failing.mu.Lock()
	failing.every = 0
	failing.mu.Unlock()
	if err := inc.Put("ckpt-000003", sections(2)); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Get("ckpt-000003")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sections(2)) {
		t.Errorf("reconstruction lost the change from the failed put: %v", got)
	}
}

// A put whose section names differ from the keyframe's reconstructs
// exactly what was put: a delta overlays the chain's sections, so a
// dropped section would come back from the keyframe, an added one would
// be kept by every later delta, and a section unchanged since before the
// keyframe would be skipped as "known". Checkpoint.Unprotect and the
// reliability levels' parity copies make such puts.
//
// Mutation-checked: with sameNames removed from the keyframe rule every
// row but "same" fails.
func TestIncrementalSectionSetChanges(t *testing.T) {
	s := func(names ...string) []Section {
		out := make([]Section, len(names))
		for i, n := range names {
			out[i] = Section{Name: n, Data: []byte(n + "-data")}
		}
		return out
	}
	for name, puts := range map[string][][]Section{
		"same":      {s("a", "b"), s("a", "b"), s("a", "b")},
		"dropped":   {s("a", "b"), s("a")},
		"added":     {s("a"), s("a", "b"), s("a")},
		"reordered": {s("a", "b"), s("b", "a")},
		"disjoint":  {s("~parity"), s("~ckpt", "x")},
		"readded":   {s("a", "b"), s("a"), s("a", "b")},
	} {
		t.Run(name, func(t *testing.T) {
			inc := NewIncremental(NewMemory(), 8, 64)
			for i, sections := range puts {
				if err := inc.Put(fmt.Sprintf("ckpt-%06d", i), copySections(sections)); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range puts {
				got, err := inc.Get(fmt.Sprintf("ckpt-%06d", i))
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("put %d: Get = %v, %v; want %v", i, got, err, want)
				}
			}
		})
	}
}

func TestIncrementalMissingKeyframeFails(t *testing.T) {
	inner := NewMemory()
	inc := NewIncremental(inner, 4, 64)
	for i := 1; i <= 3; i++ {
		if err := inc.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := inner.Delete("ckpt-000001"); err != nil { // the keyframe
		t.Fatal(err)
	}
	if _, err := inc.Get("ckpt-000003"); err == nil {
		t.Error("delta resolved without its keyframe")
	}
}

// readCounter counts the reads that reach the store under a decorator.
type readCounter struct {
	Backend
	reads int
}

func (r *readCounter) Get(key string) ([]Section, error) { r.reads++; return r.Backend.Get(key) }
func (r *readCounter) List() ([]string, error)           { r.reads++; return r.Backend.List() }

// Dependencies of a key this session stored is answered from memory — no
// List, no Get — and stays right across a Delete; a key of an earlier
// session, or any key once an overwrite has made the session's record of
// the store unreliable, is resolved from the stored metadata as before.
func TestIncrementalDependenciesAnsweredFromLedger(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("ckpt-%06d", i) }
	mem := NewMemory()
	earlier := NewIncremental(mem, 3, 64)
	for i := 1; i <= 2; i++ {
		if err := earlier.Put(key(i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	inner := &readCounter{Backend: mem}
	inc := NewIncremental(inner, 3, 64)
	for i := 3; i <= 7; i++ { // keyframes at 3 and 6
		if err := inc.Put(key(i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(k int, fromMemory bool, want ...int) {
		t.Helper()
		inner.reads = 0
		deps, err := inc.Dependencies(key(k))
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, w := range want {
			keys = append(keys, key(w))
		}
		if fmt.Sprint(deps) != fmt.Sprint(keys) {
			t.Errorf("Dependencies(%s) = %v, want %v", key(k), deps, keys)
		}
		if fromMemory != (inner.reads == 0) {
			t.Errorf("Dependencies(%s) made %d store reads (from memory: %v)", key(k), inner.reads, fromMemory)
		}
	}
	check(3, true, 3)
	check(5, true, 3, 4, 5)
	check(7, true, 6, 7)
	check(2, false, 1, 2) // the earlier session's delta
	if err := inc.Delete(key(4)); err != nil {
		t.Fatal(err)
	}
	check(5, true, 3, 5)
	// An overwrite is stored as a keyframe, so what lies beneath the
	// session's later keys is no longer what the session wrote there.
	if err := inc.Put(key(5), sampleSections(50)); err != nil {
		t.Fatal(err)
	}
	check(5, true, 5)
	check(7, false, 6, 7)
}

func TestEncodeDecodeSections(t *testing.T) {
	sections := sampleSections(7)
	blob := EncodeSections(sections)
	if int64(len(blob)) != EncodedSize(sections) {
		t.Errorf("EncodedSize = %d, len = %d", EncodedSize(sections), len(blob))
	}
	got, err := DecodeSections(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sections) {
		t.Error("roundtrip differs")
	}
	for _, bad := range [][]byte{nil, blob[:8], blob[:len(blob)-1]} {
		if _, err := DecodeSections(bad); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", len(bad))
		}
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"file": KindFile, "": KindFile, "memory": KindMemory, "mem": KindMemory} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"s3", "sharded"} {
		if _, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) succeeded", s)
		}
	}
}

func TestOpenAndDecorate(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: KindMemory},
		{Kind: KindFile, Dir: t.TempDir()},
		{Kind: KindMemory, Async: true},
		{Kind: KindMemory, Incremental: true, Keyframe: 2},
		{Kind: KindFile, Dir: t.TempDir(), Async: true, Incremental: true},
	} {
		base, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open(%+v): %v", cfg, err)
		}
		b := Decorate(base, cfg)
		if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got, err := b.Get("ckpt-000001")
		if err != nil || len(got) != 3 {
			t.Fatalf("%+v: Get = %v, %v", cfg, got, err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("%+v: Close: %v", cfg, err)
		}
	}
	for _, cfg := range []Config{{Kind: KindFile}, {Kind: Kind(42)}} {
		if _, err := Open(cfg); err == nil {
			t.Errorf("Open(%+v) succeeded", cfg)
		}
	}
}

// sealObject frames raw body bytes the way a sender would: the CRC is
// computed over whatever the body says, so it vouches for nothing.
func sealObject(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// objectDeclaring is a correctly sealed object whose header declares
// count sections in front of payload.
func objectDeclaring(count uint32, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint32(nil, objectMagic)
	body = binary.LittleEndian.AppendUint32(body, objectVersion)
	body = binary.LittleEndian.AppendUint32(body, count)
	return sealObject(append(body, payload...))
}

// hostileCounts are objects whose section count is a lie. The first is
// the whole attack: 16 bytes that any client can PUT.
func hostileCounts() map[string][]byte {
	valid := EncodeSections(sampleSections(3))
	payload := valid[12 : len(valid)-4]
	return map[string][]byte{
		"0xFFFFFFFF in 16 bytes": objectDeclaring(0xFFFFFFFF, nil),
		"1<<31 in 16 bytes":      objectDeclaring(1<<31, nil),
		"one more than fits":     objectDeclaring(uint32(len(payload)/12+1), payload),
		"one, no bytes":          objectDeclaring(1, nil),
	}
}

// TestDecodeSectionsHostileCount: a declared count the bytes cannot hold
// is a clean error that allocates next to nothing — at the parent the
// first two rows asked the runtime for 171 GB and 86 GB and the process
// died, on every PUT handler, Remote.Get and file-backend read.
func TestDecodeSectionsHostileCount(t *testing.T) {
	for name, blob := range hostileCounts() {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sections, err := DecodeSections(blob)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted, %d sections", len(sections))
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v: the object must get past the CRC to test the count", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("rejecting a %d-byte object allocated %d bytes", len(blob), got)
			}
		})
	}
	// Exact fit: as many empty sections as the bytes hold is legal.
	const n = 100
	sections, err := DecodeSections(objectDeclaring(n, make([]byte, 12*n)))
	if err != nil || len(sections) != n {
		t.Fatalf("exact-fit count: %d sections, %v", len(sections), err)
	}
	if allocs := testing.AllocsPerRun(10, func() { DecodeSections(objectDeclaring(0xFFFFFFFF, nil)) }); allocs > 8 {
		t.Errorf("rejecting a hostile count takes %v allocations", allocs)
	}
}

// FuzzDecodeSections: whatever bytes arrive, decoding ends in success or
// a clean error, never a panic and never an allocation sized by a count
// the object merely declares; what is accepted survives a re-encode.
// seal appends a valid CRC, which a hostile sender would too.
func FuzzDecodeSections(f *testing.F) {
	for seed := byte(0); seed < 3; seed++ {
		blob := EncodeSections(sampleSections(seed))
		f.Add(blob, false)
		f.Add(blob[:len(blob)-4], true)
		for cut := 12; cut < 64; cut += 5 {
			f.Add(blob[:cut], true)
		}
	}
	f.Add(EncodeSections(nil), false)
	for _, blob := range hostileCounts() {
		f.Add(blob, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = sealObject(data)
		}
		sections, err := DecodeSections(data)
		if err != nil {
			if sections != nil {
				t.Fatalf("error %v with %d sections", err, len(sections))
			}
			return
		}
		if int64(len(data)) < EncodedSize(sections) {
			t.Fatalf("%d bytes decoded to sections that encode to %d", len(data), EncodedSize(sections))
		}
		again, err := DecodeSections(EncodeSections(sections))
		if err != nil {
			t.Fatalf("accepted sections do not re-encode: %v", err)
		}
		if len(again) != len(sections) {
			t.Fatalf("re-encode: %d sections, want %d", len(again), len(sections))
		}
		for i := range sections {
			if again[i].Name != sections[i].Name || !bytes.Equal(again[i].Data, sections[i].Data) {
				t.Fatalf("section %d differs after a re-encode", i)
			}
		}
	})
}
