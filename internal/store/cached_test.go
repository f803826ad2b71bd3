package store

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// countingBackend wraps a backend counting inner operations, with an
// optional gate that holds Gets open (single-flight tests).
type countingBackend struct {
	Backend
	mu   sync.Mutex
	gets int
	gate chan struct{} // if non-nil, Get blocks until it is closed
}

func (c *countingBackend) Get(key string) ([]Section, error) {
	c.mu.Lock()
	c.gets++
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return c.Backend.Get(key)
}

func (c *countingBackend) innerGets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets
}

func TestCachedWriteThroughServesHitsWithoutInnerReads(t *testing.T) {
	inner := &countingBackend{Backend: NewMemory()}
	c := NewCached(inner, 1<<20)
	want := sampleSections(1)
	if err := c.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Get("k1")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("get %d: sections differ", i)
		}
	}
	if inner.innerGets() != 0 {
		t.Errorf("write-through cache reached the inner backend %d times", inner.innerGets())
	}
	st := c.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 0 {
		t.Errorf("hits/misses = %d/%d, want 3/0", st.CacheHits, st.CacheMisses)
	}
	// The inner write happened (write-through, not write-back).
	if got, err := inner.Backend.Get("k1"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("inner object missing after write-through: %v", err)
	}
}

func TestCachedReadThroughPopulatesOnMiss(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("cold", sampleSections(7)); err != nil {
		t.Fatal(err)
	}
	inner := &countingBackend{Backend: mem}
	c := NewCached(inner, 1<<20)
	for i := 0; i < 4; i++ {
		if _, err := c.Get("cold"); err != nil {
			t.Fatal(err)
		}
	}
	if inner.innerGets() != 1 {
		t.Errorf("inner gets = %d, want 1 (read-through then cached)", inner.innerGets())
	}
	st := c.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 3 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.CacheHits, st.CacheMisses)
	}
}

func TestCachedEvictsColdEntriesAtByteBound(t *testing.T) {
	inner := &countingBackend{Backend: NewMemory()}
	one := EncodedSize(sampleSections(0))
	c := NewCached(inner, 2*one) // room for exactly two objects
	for _, k := range []string{"a", "b", "cvict"} {
		if err := c.Put(k, sampleSections(k[0])); err != nil {
			t.Fatal(err)
		}
	}
	if got := cachedBytes(c); got > 2*one {
		t.Errorf("cache holds %d bytes, bound is %d", got, 2*one)
	}
	// "a" was coldest and must have been evicted; reading it goes inner.
	if _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if inner.innerGets() != 1 {
		t.Errorf("inner gets = %d, want 1 (only the evicted key)", inner.innerGets())
	}
	// "cvict" is hot and still cached.
	if _, err := c.Get("cvict"); err != nil {
		t.Fatal(err)
	}
	if inner.innerGets() != 1 {
		t.Errorf("inner gets = %d after hot read, want 1", inner.innerGets())
	}
}

func TestCachedLRUOrderRespectsRecentUse(t *testing.T) {
	inner := &countingBackend{Backend: NewMemory()}
	one := EncodedSize(sampleSections(0))
	c := NewCached(inner, 2*one)
	c.Put("a", sampleSections('a'))
	c.Put("b", sampleSections('b'))
	c.Get("a")                      // refresh "a": now "b" is coldest
	c.Put("c", sampleSections('c')) // evicts "b"
	c.Get("a")
	if inner.innerGets() != 0 {
		t.Errorf("recently used key was evicted (inner gets = %d)", inner.innerGets())
	}
	c.Get("b")
	if inner.innerGets() != 1 {
		t.Errorf("cold key should have been the evicted one (inner gets = %d)", inner.innerGets())
	}
}

func TestCachedSkipsObjectsLargerThanBound(t *testing.T) {
	c := NewCached(NewMemory(), 64) // smaller than any sample object
	if err := c.Put("big", sampleSections(9)); err != nil {
		t.Fatal(err)
	}
	if got := cachedBytes(c); got != 0 {
		t.Errorf("oversized object cached (%d bytes)", got)
	}
	if _, err := c.Get("big"); err != nil {
		t.Fatal(err) // still served read-through
	}
}

func TestCachedDeleteEvicts(t *testing.T) {
	c := NewCached(NewMemory(), 1<<20)
	c.Put("k", sampleSections(2))
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key served from cache: %v", err)
	}
	if err := c.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete = %v, want ErrNotFound", err)
	}
}

// toggleFailBackend fails every Put while fail is set. The cache writes
// through PutBlob, which the embedded Memory would otherwise serve
// without failing.
type toggleFailBackend struct {
	*Memory
	fail bool
}

func (f *toggleFailBackend) Put(key string, sections []Section) error {
	return f.PutBlob(key, EncodeSections(sections))
}

func (f *toggleFailBackend) PutBlob(key string, blob []byte) error {
	if f.fail {
		return errors.New("injected write failure")
	}
	return f.Memory.PutBlob(key, blob)
}

func TestCachedFailedPutInvalidates(t *testing.T) {
	failing := &toggleFailBackend{Memory: NewMemory()}
	c := NewCached(failing, 1<<20)
	if err := c.Put("k", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	failing.fail = true
	if err := c.Put("k", sampleSections(2)); err == nil {
		t.Fatal("failed inner Put not surfaced")
	}
	// The stale cached copy must not be served: the inner object's state
	// is the only truth after a failed overwrite.
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleSections(1)) {
		t.Error("cache served a version inconsistent with the inner store")
	}
}

func TestCachedSingleFlightDeduplicatesConcurrentGets(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("k", sampleSections(5)); err != nil {
		t.Fatal(err)
	}
	inner := &countingBackend{Backend: mem, gate: make(chan struct{})}
	c := NewCached(inner, 1<<20)
	const readers = 16
	var wg sync.WaitGroup
	results := make([][]Section, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Get("k")
		}(i)
	}
	// Let the leader reach the inner Get and the rest pile up on the
	// flight entry, then release.
	for inner.innerGets() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(inner.gate)
	wg.Wait()
	if inner.innerGets() != 1 {
		t.Errorf("inner gets = %d, want 1 (single-flight)", inner.innerGets())
	}
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], sampleSections(5)) {
			t.Errorf("reader %d got wrong sections", i)
		}
	}
}

// scriptedBackend sequences the cache-coherence race tests: Get reads
// the inner result first, then (optionally) parks on exit — so a value
// read *before* a concurrent mutation is returned *after* it — and can
// fail a fixed number of leading Gets with a transient error.
type scriptedBackend struct {
	Backend
	mu       sync.Mutex
	gets     int
	puts     int
	failGets int           // fail this many leading Gets
	getExit  chan struct{} // if non-nil, Get parks here after reading
	putExit  chan struct{} // if non-nil, Put parks here after writing
}

var errTransient = errors.New("store: transient inner failure")

func (s *scriptedBackend) Get(key string) ([]Section, error) {
	s.mu.Lock()
	s.gets++
	fail := s.failGets > 0
	if fail {
		s.failGets--
	}
	exit := s.getExit
	s.mu.Unlock()
	if fail {
		return nil, errTransient
	}
	sections, err := s.Backend.Get(key)
	if exit != nil {
		<-exit
	}
	return sections, err
}

func (s *scriptedBackend) Put(key string, sections []Section) error {
	err := s.Backend.Put(key, sections)
	s.mu.Lock()
	s.puts++
	exit := s.putExit
	s.mu.Unlock()
	if exit != nil {
		<-exit
	}
	return err
}

func (s *scriptedBackend) counts() (gets, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts
}

// TestCachedFollowersRetryAfterLeaderError pins the single-flight fix:
// a leader's transient inner error fails only the leader's own Get.
// Followers waiting on the flight retry instead of adopting the error,
// and one of them becomes the next leader and succeeds.
func TestCachedFollowersRetryAfterLeaderError(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("k", sampleSections(5)); err != nil {
		t.Fatal(err)
	}
	inner := &scriptedBackend{Backend: mem, failGets: 1, getExit: make(chan struct{})}
	c := NewCached(inner, 1<<20)

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Get("k")
		leaderErr <- err
	}()
	// The failing leader returns without touching the gate (failGets
	// short-circuits before the park); wait until a follower has joined
	// its flight before letting anything proceed.
	// Leader's inner Get fails immediately, so first make sure the flight
	// exists, then add the follower.
	for {
		if g, _ := inner.counts(); g >= 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// NOTE: the leader may already have failed by now; either way the
	// follower below must end up with the object, never errTransient.
	followerRes := make(chan error, 1)
	var got []Section
	go func() {
		sections, err := c.Get("k")
		got = sections
		followerRes <- err
	}()
	close(inner.getExit) // release the follower's own (successful) read
	if err := <-leaderErr; !errors.Is(err, errTransient) {
		t.Fatalf("leader error = %v, want the transient inner error", err)
	}
	if err := <-followerRes; err != nil {
		t.Fatalf("follower must retry past the leader's transient error, got %v", err)
	}
	if !reflect.DeepEqual(got, sampleSections(5)) {
		t.Error("follower got wrong sections")
	}
}

// TestCachedFollowersShareNotFound: absence is a definitive answer —
// followers must not burn extra inner reads retrying it.
func TestCachedFollowersShareNotFound(t *testing.T) {
	mem := NewMemory()
	inner := &scriptedBackend{Backend: mem, getExit: make(chan struct{})}
	c := NewCached(inner, 1<<20)
	const readers = 4
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Get("missing")
		}(i)
	}
	// Release the leader only once the other three have joined its flight:
	// a reader that arrived after the flight was gone would rightly become
	// a second leader and read the inner store again.
	for c.flightWaiters("missing") < readers-1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(inner.getExit)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("reader %d: %v, want ErrNotFound", i, err)
		}
	}
	if g, _ := inner.counts(); g != 1 {
		t.Errorf("inner gets = %d, want 1 (shared not-found)", g)
	}
}

// TestCachedGetRacingDeleteDoesNotRepopulate pins the coherence fix: a
// single-flight leader whose inner read raced a Delete must not insert
// the deleted blob into the cache.
func TestCachedGetRacingDeleteDoesNotRepopulate(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("k", sampleSections(5)); err != nil {
		t.Fatal(err)
	}
	inner := &scriptedBackend{Backend: mem, getExit: make(chan struct{})}
	c := NewCached(inner, 1<<20)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Get("k")
		leaderDone <- err
	}()
	for {
		if g, _ := inner.counts(); g >= 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The leader has read the (pre-delete) object and is parked on its
	// way out. Delete the key, then let the leader finish.
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	close(inner.getExit)
	if err := <-leaderDone; err != nil {
		// The leader's own result may be the old object (its read began
		// before the delete) — but never an error here.
		t.Fatalf("leader: %v", err)
	}
	if n := cachedBytes(c); n != 0 {
		t.Fatalf("cache holds %d bytes of a deleted object", n)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still served (err=%v)", err)
	}
}

// TestCachedPutRacingDeleteDoesNotRepopulate: same window on the write
// path — a Delete landing between the inner write and the cache fill
// must win.
func TestCachedPutRacingDeleteDoesNotRepopulate(t *testing.T) {
	mem := NewMemory()
	inner := &scriptedBackend{Backend: mem, putExit: make(chan struct{})}
	c := NewCached(inner, 1<<20)

	putDone := make(chan error, 1)
	go func() { putDone <- c.Put("k", sampleSections(5)) }()
	for {
		if _, p := inner.counts(); p >= 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The inner write landed; the writer is parked before its cache fill.
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	close(inner.putExit)
	if err := <-putDone; err != nil {
		t.Fatalf("put: %v", err)
	}
	if n := cachedBytes(c); n != 0 {
		t.Fatalf("cache holds %d bytes of a deleted object", n)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still served from cache (err=%v)", err)
	}
}

// cachedBytes reports c's current occupancy.
func cachedBytes(c *Cached) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
