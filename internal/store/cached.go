package store

import (
	"container/list"
	"errors"
	"sync"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// Cached is a byte-bounded read-through/write-through LRU tier over a
// backend. It exists for remote bases, where a Get is a network round
// trip: a restart that re-reads recent checkpoints (or several restarts
// re-reading the same keyframe) is served from local memory instead.
//
// Entries are sealed blobs, so the byte bound accounts for real object
// size: the bytes a Put handed to the inner store, or those the inner
// GetBlob returned on a miss, shared read-only with that store and never
// re-encoded. Get decodes the blob in place and GetBlob hands it out
// itself, both under Backend's ownership rule. Put writes through (inner
// first, cache on success), Delete evicts, and concurrent Gets of the
// same missing key are deduplicated: one leader performs the inner read
// while the others wait and share its result, so N clients restarting
// from the same checkpoint cost one inner read.
//
// Coherence: the cache assumes it is the only writer to its namespace
// of the inner store, which is how the checkpoint layer uses it (one
// Context, one namespace). A second process writing the same keys
// behind the cache's back would be served stale objects until eviction.
type Cached struct {
	inner  Backend
	limit  int64
	faults *faultinject.Registry
	ops    opSet
	// Cache outcome counters mirrored into obs (nil when disabled):
	// hits/followers/misses, for /v1/metrics and bench snapshots.
	obsHits, obsFollowers, obsMisses *obs.Counter

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	size    int64
	flight  map[string]*flightCall
	delSeq  uint64 // bumped by every Delete; guards Put's post-write insert
	stats   Stats  // CacheHits/CacheMisses only; the rest is inner's
}

type cacheEntry struct {
	key  string
	blob []byte
}

// flightCall is one in-progress inner Get shared by concurrent callers.
type flightCall struct {
	done chan struct{}
	blob []byte
	err  error
	// stale is set (under c.mu) by a Put or Delete of the key while the
	// leader's inner read is in flight: whatever the leader got back no
	// longer reflects the inner store and must not populate the cache.
	stale bool
	// waiters counts the followers sharing this flight (under c.mu); tests
	// read it to release a leader only once its followers have joined.
	waiters int
}

// DefaultCacheBytes is the cache bound when none is given.
const DefaultCacheBytes = int64(64) << 20

// errFlightAbandoned fails followers of a single-flight leader that
// panicked away; each follower retries and one of them re-reads.
var errFlightAbandoned = errors.New("store: cache read leader crashed")

// NewCached wraps inner with an LRU cache bounded to maxBytes of encoded
// objects (<= 0 selects DefaultCacheBytes).
func NewCached(inner Backend, maxBytes int64) *Cached {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cached{
		inner:   inner,
		limit:   maxBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flight:  make(map[string]*flightCall),
	}
}

// SetFaults implements FaultInjectable.
func (c *Cached) SetFaults(r *faultinject.Registry) { c.faults = r }

// SetObs implements Observable.
func (c *Cached) SetObs(r *obs.Registry) {
	c.ops = newOpSet(r, "store.cached")
	c.obsHits = r.Counter("store.cache.hits")
	c.obsFollowers = r.Counter("store.cache.follower_hits")
	c.obsMisses = r.Counter("store.cache.misses")
}

// invalidateFlight marks any in-progress single-flight read of key as
// stale so its result cannot repopulate the cache over this mutation.
// Caller holds c.mu.
func (c *Cached) invalidateFlight(key string) {
	if call, ok := c.flight[key]; ok {
		call.stale = true
	}
}

// insert adds or refreshes key's blob and evicts from the cold end until
// the bound holds. Objects larger than the whole bound are not cached.
// Caller holds c.mu.
func (c *Cached) insert(key string, blob []byte) {
	if int64(len(blob)) > c.limit {
		c.evict(key)
		return
	}
	if el, ok := c.entries[key]; ok {
		c.size += int64(len(blob)) - int64(len(el.Value.(*cacheEntry).blob))
		el.Value.(*cacheEntry).blob = blob
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, blob: blob})
		c.size += int64(len(blob))
	}
	for c.size > c.limit {
		cold := c.lru.Back()
		if cold == nil {
			break
		}
		c.removeElement(cold)
	}
}

func (c *Cached) evict(key string) {
	if el, ok := c.entries[key]; ok {
		c.removeElement(el)
	}
}

func (c *Cached) removeElement(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.size -= int64(len(e.blob))
}

// Put implements Backend: the object is encoded once, for the inner
// store and the cache alike.
func (c *Cached) Put(key string, sections []Section) error {
	return c.PutBlob(key, EncodeSections(sections))
}

// PutBlob implements BlobStore: write blob through, then cache the same
// bytes. Populating on write lets a restart that re-reads the newest
// checkpoint hit without ever touching the inner store.
func (c *Cached) PutBlob(key string, blob []byte) error {
	start := c.ops.put.Start()
	err := c.put(key, blob)
	var n int64
	if err == nil {
		n = int64(len(blob))
	}
	c.ops.put.Done(start, n, errClass(err))
	return err
}

func (c *Cached) put(key string, blob []byte) error {
	c.mu.Lock()
	seq := c.delSeq
	c.mu.Unlock()
	if err := PutBlob(c.inner, key, blob); err != nil {
		// The write may have partially (or wholly) replaced the inner
		// object; a cached copy of either generation could now be wrong,
		// and so could an in-flight leader's read of it.
		c.mu.Lock()
		c.invalidateFlight(key)
		c.evict(key)
		c.mu.Unlock()
		return err
	}
	c.mu.Lock()
	c.invalidateFlight(key) // a leader mid-read now holds the older generation
	// A Delete that ran between the inner write and here has already
	// removed the inner object; caching the blob would serve a deleted
	// checkpoint forever. The global sequence is deliberately coarse —
	// deletes are rare (retention pruning), and skipping one cache fill
	// costs a future miss, not correctness.
	if seq == c.delSeq {
		c.insert(key, blob)
	}
	c.mu.Unlock()
	return nil
}

// Get implements Backend: the cached or fetched blob, decoded in place.
func (c *Cached) Get(key string) ([]Section, error) { return sectionsOf(c.GetBlob(key)) }

// GetBlob implements BlobStore: cache hit, or a single-flighted inner
// read. When the flight leader's read fails, waiting followers do not
// adopt that error as their own answer: the flight entry is already
// cleared, so each follower retries from the top — one becomes the next
// leader — and only a leader's own inner error (or a definitive
// ErrNotFound) is ever returned to a caller. A transient blip on one
// read therefore fails one caller's read at most, instead of every
// piled-up restart.
func (c *Cached) GetBlob(key string) ([]byte, error) {
	start := c.ops.get.Start()
	blob, err := c.get(key)
	c.ops.get.Done(start, int64(len(blob)), errClass(err))
	return blob, err
}

func (c *Cached) get(key string) ([]byte, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			blob := el.Value.(*cacheEntry).blob
			// Cache-served reads keep the uniform Get accounting the inner
			// backend would have recorded, plus the hit counter.
			c.stats.CacheHits++
			c.stats.Gets++
			c.stats.BytesRead += int64(len(blob))
			c.mu.Unlock()
			c.obsHits.Inc()
			return blob, nil
		}
		if call, ok := c.flight[key]; ok {
			// Another Get of this key is already reading the inner
			// backend; share its result.
			call.waiters++
			c.mu.Unlock()
			<-call.done
			if call.err != nil {
				if call.err == ErrNotFound {
					// Absence is an answer, not a failure; retrying would
					// just re-read the inner store for the same no. Still
					// a follower hit: the shared flight avoided an inner
					// read, even though no cached object was involved.
					c.mu.Lock()
					c.stats.CacheFollowerHits++
					c.mu.Unlock()
					c.obsFollowers.Inc()
					return nil, call.err
				}
				// The leader failed; this Get goes back around and does
				// its own read — nothing was avoided, nothing counted.
				continue
			}
			// Counted only now that the shared result is actually
			// consumed: the point of the stat is inner reads avoided.
			// A follower hit, not a cache hit — the object was never in
			// the LRU; another caller's in-flight read was shared.
			c.mu.Lock()
			c.stats.CacheFollowerHits++
			c.stats.Gets++
			c.stats.BytesRead += int64(len(call.blob))
			c.mu.Unlock()
			c.obsFollowers.Inc()
			return call.blob, nil
		}
		call := &flightCall{done: make(chan struct{})}
		c.flight[key] = call
		c.stats.CacheMisses++
		c.mu.Unlock()
		c.obsMisses.Inc()

		blob, err := func() (_ []byte, err error) {
			// A panic out of the leader (an injected crash at this site
			// or inside the inner backend) must not strand followers on
			// a flight that will never complete: fail the flight, then
			// let the panic continue to the caller's crash boundary.
			defer func() {
				if p := recover(); p != nil {
					call.err = errFlightAbandoned
					c.mu.Lock()
					delete(c.flight, key)
					c.mu.Unlock()
					close(call.done)
					panic(p)
				}
			}()
			if err := c.faults.Hit(SiteCachedLeader); err != nil {
				return nil, err
			}
			return GetBlob(c.inner, key)
		}()
		call.blob, call.err = blob, err
		c.mu.Lock()
		delete(c.flight, key)
		// A Put or Delete of this key during the inner read marked the
		// flight stale: the blob in hand belongs to a superseded
		// generation (or to an object that no longer exists) and must
		// not repopulate the cache. The leader still returns it — its
		// read was correct when it was issued.
		if err == nil && !call.stale {
			c.insert(key, blob)
		}
		c.mu.Unlock()
		close(call.done)
		return blob, err
	}
}

// List implements Backend (pass-through: the cache holds objects, not
// the key space).
func (c *Cached) List() ([]string, error) { return c.inner.List() }

// Delete implements Backend: delete through, evict locally even when the
// inner delete fails (a half-deleted object must not be served), and
// invalidate any in-flight read so a Get racing this Delete cannot
// re-populate the cache with the deleted blob.
func (c *Cached) Delete(key string) error {
	start := c.ops.del.Start()
	err := c.del(key)
	c.ops.del.Done(start, 0, errClass(err))
	return err
}

func (c *Cached) del(key string) error {
	err := c.inner.Delete(key)
	c.mu.Lock()
	c.delSeq++
	c.invalidateFlight(key)
	c.evict(key)
	c.mu.Unlock()
	return err
}

// Stats implements Backend: the inner backend's accounting plus this
// tier's hit/miss counters and cache-served reads.
func (c *Cached) Stats() Stats {
	s := c.inner.Stats()
	c.mu.Lock()
	s.CacheHits += c.stats.CacheHits
	s.CacheFollowerHits += c.stats.CacheFollowerHits
	s.CacheMisses += c.stats.CacheMisses
	s.Gets += c.stats.Gets
	s.BytesRead += c.stats.BytesRead
	c.mu.Unlock()
	return s
}

// Flush implements Backend.
func (c *Cached) Flush() error { return c.inner.Flush() }

// Close implements Backend: drop the cache and close the inner backend.
func (c *Cached) Close() error {
	c.mu.Lock()
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.size = 0
	c.mu.Unlock()
	return c.inner.Close()
}

// Dependencies forwards to the inner backend's resolver, if any.
func (c *Cached) Dependencies(key string) ([]string, error) {
	return DependenciesOf(c.inner, key)
}
