package store

import (
	"sort"
	"sync"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// Memory is the in-memory backend: objects live in a map as encoded
// blobs. It exists for tests, benchmarks that must not measure the
// filesystem, and as the innermost tier of future caching stacks. Objects
// keep the same CRC framing as the file backend so integrity checking and
// byte accounting are identical across backends. A stored blob is never
// written again once it is in the map — Get and GetBlob hand it out
// shared — so replacing an object swaps the map entry, and a blob GetBlob
// verified once stays verified until then.
type Memory struct {
	faults *faultinject.Registry
	ops    opSet

	mu      sync.Mutex
	objects map[string][]byte
	// verified holds the keys whose stored blob a GetBlob verified. Every
	// write of a key's entry — Put, PutBlob, a torn put, Corrupt, Delete —
	// drops the key from it.
	verified map[string]bool
	stats    Stats
}

// SetFaults implements FaultInjectable.
func (m *Memory) SetFaults(r *faultinject.Registry) { m.faults = r }

// SetObs implements Observable.
func (m *Memory) SetObs(r *obs.Registry) { m.ops = newOpSet(r, "store.memory") }

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{objects: make(map[string][]byte), verified: make(map[string]bool)}
}

// Put implements Backend.
func (m *Memory) Put(key string, sections []Section) error {
	return m.PutBlob(key, EncodeSections(sections))
}

// PutBlob implements BlobStore: the map holds blob itself.
func (m *Memory) PutBlob(key string, blob []byte) error {
	start := m.ops.put.Start()
	n, err := m.put(key, blob)
	m.ops.put.Done(start, n, errClass(err))
	return err
}

// put is the uninstrumented PutBlob; it reports the bytes committed to
// the medium (a torn injection still commits its truncated blob).
func (m *Memory) put(key string, blob []byte) (int64, error) {
	blob, ferr := m.faults.HitBlob(SitePut, blob)
	if ferr != nil && !faultinject.IsTorn(ferr) {
		return 0, ferr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// A torn injection still commits its truncated blob — the write
	// "reached the medium" half-done and the CRC framing must catch it
	// on Get — but fails the Put and is not counted as a good write.
	m.objects[key] = blob
	delete(m.verified, key)
	if ferr != nil {
		return int64(len(blob)), ferr
	}
	m.stats.Puts++
	m.stats.BytesWritten += int64(len(blob))
	m.stats.SectionsWritten += sectionCount(blob)
	return int64(len(blob)), nil
}

// Get implements Backend: the stored blob, decoded in place.
func (m *Memory) Get(key string) ([]Section, error) {
	return getSections(m.ops.get, key, m.get)
}

// GetBlob implements BlobStore: the stored blob itself, verified by the
// first GetBlob that reads it. The check runs outside the lock, and its
// verdict is kept only if the key still holds the blob it checked.
func (m *Memory) GetBlob(key string) ([]byte, error) {
	start := m.ops.get.Start()
	blob, verified, err := m.lookup(key)
	if err == nil && !verified {
		if _, err = VerifySections(blob); err == nil {
			m.mu.Lock()
			if cur := m.objects[key]; len(cur) == len(blob) && &cur[0] == &blob[0] {
				m.verified[key] = true
			}
			m.mu.Unlock()
		}
	}
	m.ops.get.Done(start, int64(len(blob)), errClass(err))
	if err != nil {
		return nil, err
	}
	return blob, nil
}

func (m *Memory) get(key string) ([]byte, error) {
	blob, _, err := m.lookup(key)
	return blob, err
}

// lookup returns key's stored blob and whether a GetBlob verified it.
func (m *Memory) lookup(key string) ([]byte, bool, error) {
	if err := m.faults.Hit(SiteGet); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.objects[key]
	if !ok {
		return nil, false, ErrNotFound
	}
	m.stats.Gets++
	m.stats.BytesRead += int64(len(blob))
	return blob, m.verified[key], nil
}

// List implements Backend.
func (m *Memory) List() ([]string, error) {
	start := m.ops.list.Start()
	keys, err := m.list()
	m.ops.list.Done(start, 0, errClass(err))
	return keys, err
}

func (m *Memory) list() ([]string, error) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.objects))
	for k := range m.objects {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Backend.
func (m *Memory) Delete(key string) error {
	start := m.ops.del.Start()
	err := m.del(key)
	m.ops.del.Done(start, 0, errClass(err))
	return err
}

func (m *Memory) del(key string) error {
	if err := m.faults.Hit(SiteDelete); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[key]; !ok {
		return ErrNotFound
	}
	delete(m.objects, key)
	delete(m.verified, key)
	m.stats.Deletes++
	return nil
}

// Stats implements Backend.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Flush implements Backend (writes are immediately durable).
func (m *Memory) Flush() error { return nil }

// Close implements Backend.
func (m *Memory) Close() error { return nil }

// Corrupt flips one byte of the stored object, mirroring the paper's
// fault-injection experiments; it reports whether the key existed. Tests
// use it to prove the CRC framing rejects in-memory corruption too. The
// flip lands in a copy that replaces the stored blob: a reader already
// holding the old one (a GET writing it out) never sees it change.
func (m *Memory) Corrupt(key string, offset int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.objects[key]
	if !ok || len(blob) == 0 {
		return false
	}
	blob = append([]byte(nil), blob...)
	blob[((offset%len(blob))+len(blob))%len(blob)] ^= 0xFF
	m.objects[key] = blob
	delete(m.verified, key)
	return true
}
