package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// File is the single-file backend: one object per file under dir, the
// on-disk format the original internal/checkpoint hand-rolled, extracted
// behind the Backend interface. Writes go through a temp file + rename so
// a crash mid-write never leaves a half-object under the real key; a torn
// rename is still caught by the CRC framing on Get.
type File struct {
	dir    string
	sync   bool
	faults *faultinject.Registry
	ops    opSet

	mu    sync.Mutex
	stats Stats
}

// SetFaults implements FaultInjectable.
func (f *File) SetFaults(r *faultinject.Registry) { f.faults = r }

// SetObs implements Observable.
func (f *File) SetObs(r *obs.Registry) { f.ops = newOpSet(r, "store.file") }

const tmpSuffix = ".tmp"

// NewFile creates (if needed) dir and returns a file backend over it.
// When sync is set every write is fsynced before rename (checkpoint level
// L4's "stable storage" semantics).
func NewFile(dir string, sync bool) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &File{dir: dir, sync: sync}, nil
}

// DefaultShardWorkers is the pool size the removed sharded backend took
// by default.
//
// Deprecated: kept only because benchmark/layers.go passes it to
// NewSharded; it goes with that call.
const DefaultShardWorkers = 4

// NewSharded returns NewFile(dir, sync); workers is ignored. The sharded
// backend it once built is gone: File is the one on-disk base.
//
// Deprecated: benchmark/layers.go is the only caller; use NewFile.
func NewSharded(dir string, workers int, sync bool) (*File, error) {
	return NewFile(dir, sync)
}

func (f *File) path(key string) string { return filepath.Join(f.dir, key) }

// Put implements Backend.
func (f *File) Put(key string, sections []Section) error {
	return f.PutBlob(key, EncodeSections(sections))
}

// PutBlob implements BlobStore: blob is the file's contents.
func (f *File) PutBlob(key string, blob []byte) error {
	start := f.ops.put.Start()
	n, err := f.put(key, blob)
	f.ops.put.Done(start, n, errClass(err))
	return err
}

func (f *File) put(key string, blob []byte) (int64, error) {
	blob, ferr := f.faults.HitBlob(SitePut, blob)
	if ferr != nil && !faultinject.IsTorn(ferr) {
		return 0, ferr
	}
	// A torn injection commits the truncated blob through the same
	// atomic-rename path — modelling a write torn below the rename
	// boundary (a partial page, a lying disk) that Get's CRC must catch.
	if err := writeFileAtomic(f.path(key), blob, f.sync); err != nil {
		return 0, err
	}
	if ferr != nil {
		return int64(len(blob)), ferr
	}
	f.mu.Lock()
	f.stats.Puts++
	f.stats.BytesWritten += int64(len(blob))
	f.stats.SectionsWritten += sectionCount(blob)
	f.mu.Unlock()
	return int64(len(blob)), nil
}

// writeFileAtomic writes data via a temp file + rename. Each call gets
// its own temp file, so concurrent writers to one path never write into
// each other's bytes; the last rename wins. With sync set it fsyncs the
// data before the rename and the parent directory after it — the rename
// itself is only durable once the directory entry is on stable storage,
// and without it a power failure can roll the key back to its previous
// object (or to nothing).
func writeFileAtomic(path string, data []byte, sync bool) error {
	w, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return err
	}
	tmp := w.Name()
	err = w.Chmod(0o644) // CreateTemp makes the file 0600; an object is 0644
	if err == nil {
		_, err = w.Write(data)
	}
	if err == nil && sync {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Get implements Backend: the file's contents, decoded in place.
func (f *File) Get(key string) ([]Section, error) {
	return getSections(f.ops.get, key, f.get)
}

// GetBlob implements BlobStore: the file's contents, verified.
func (f *File) GetBlob(key string) ([]byte, error) {
	return getBlob(f.ops.get, key, f.get)
}

func (f *File) get(key string) ([]byte, error) {
	if err := f.faults.Hit(SiteGet); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(f.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.stats.Gets++
	f.stats.BytesRead += int64(len(blob))
	f.mu.Unlock()
	return blob, nil
}

// List implements Backend.
func (f *File) List() ([]string, error) {
	start := f.ops.list.Start()
	keys, err := f.list()
	f.ops.list.Done(start, 0, errClass(err))
	return keys, err
}

func (f *File) list() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), tmpSuffix) {
			continue
		}
		keys = append(keys, e.Name())
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Backend.
func (f *File) Delete(key string) error {
	start := f.ops.del.Start()
	err := f.del(key)
	f.ops.del.Done(start, 0, errClass(err))
	return err
}

func (f *File) del(key string) error {
	if err := f.faults.Hit(SiteDelete); err != nil {
		return err
	}
	err := os.Remove(f.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return ErrNotFound
	}
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.stats.Deletes++
	f.mu.Unlock()
	return nil
}

// Stats implements Backend.
func (f *File) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Flush implements Backend (writes are durable on return from Put).
func (f *File) Flush() error { return nil }

// Close implements Backend.
func (f *File) Close() error { return nil }
