// Package checkpoint is the reproduction's C/R substrate: an FTI-like
// application-level, multi-level checkpointing library over the simulated
// machine's memory, plus a BLCR-like full-process snapshot used as the
// storage-cost baseline of Table IV.
//
// Like FTI (Bautista-Gomez et al., SC'11), the application registers
// ("protects") the variables to preserve, then writes checkpoints at the
// end of main-loop iterations and recovers them before the loop on
// restart. Reliability levels mirror FTI's:
//
//	L1  local checkpoint object (the mode the paper uses for validation)
//	L2  L1 + a partner copy of the object
//	L3  L2 + XOR parity blocks for erasure recovery
//	L4  L3 + synchronous flush to "stable storage" (fsync)
//
// Persistence goes through the pluggable storage engine in
// internal/store: a checkpoint is one store object whose sections are a
// small metadata header plus one section per protected variable, framed
// with a CRC-32 that detects torn or corrupted objects. The levels above
// are a decorator over the selected backend (levels.go), and the store
// package adds asynchronous double-buffered writes and delta/incremental
// checkpoints as further decorators.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"autocheck/internal/faultinject"
	"autocheck/internal/interp"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// Failpoint sites of the checkpoint layer's commit protocol.
const (
	// SiteCheckpointPut fires inside Checkpoint before the backend sees
	// the image: a crash here is a process death with nothing of this
	// checkpoint durable.
	SiteCheckpointPut = "ckpt.put"
	// SiteCheckpointCommitted fires after the backend accepted the image
	// and before the context updates its own accounting or prunes: a
	// crash here is a process death with a durable checkpoint the dying
	// process never got to acknowledge — restart must still find it.
	SiteCheckpointCommitted = "ckpt.committed"
	// SiteCheckpointPrune fires at the head of a retention prune.
	SiteCheckpointPrune = "ckpt.prune"
)

// Level selects the reliability level.
type Level int

// Reliability levels.
const (
	L1 Level = iota + 1
	L2
	L3
	L4
)

func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

// ParseLevel parses a -level CLI value: "1".."4" or "L1".."L4".
func ParseLevel(s string) (Level, error) {
	t := strings.TrimPrefix(strings.ToUpper(s), "L")
	for l := L1; l <= L4; l++ {
		if t == fmt.Sprintf("%d", int(l)) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("checkpoint: invalid level %q (want 1-4 or L1-L4)", s)
}

const (
	magic   = uint32(0x41435031) // "ACP1"
	version = uint32(2)          // v2: sectioned objects via internal/store

	metaSection = "~ckpt"
	keyPrefix   = "ckpt-"
	// maxSeq is the last sequence number a key's six digits hold. The
	// store orders checkpoints by key, and "ckpt-1000000" sorts before
	// "ckpt-999999".
	maxSeq = 999999
)

// ErrNoCheckpoint is returned by Restart when no valid checkpoint exists.
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// ErrSequenceExhausted is returned by Checkpoint once the store holds
// checkpoint 999,999: the next key would not sort after its predecessor,
// so Restart would keep returning the older state and retention would
// delete the newest object. Nothing is written.
var ErrSequenceExhausted = errors.New("checkpoint: sequence numbers exhausted: the next key would not sort after its predecessor")

// Protected describes one registered variable.
type Protected struct {
	Name  string
	Base  uint64
	Cells int64 // number of 8-byte cells
}

// variable is a protected variable plus the section last encoded for it
// and the proof that the section is still current: the watch names the
// machine and the range it was read from, writes is that watch's count at
// the read. The proof is about the machine's memory only — whether a Put
// of the section succeeded plays no part in it.
type variable struct {
	Protected
	watch   *interp.Watch
	writes  uint64
	section []byte // never written again once handed to a backend
}

// Context is an open checkpointing session over a storage backend.
type Context struct {
	backend   store.Backend
	level     Level
	faults    *faultinject.Registry
	protected []variable
	seq       int
	lastBytes int64
	allBytes  int64
	count     int
	retain    int
	pruned    int
}

// SetFaults arms (nil: disarms) fault injection on the context's own
// commit-point sites. NewContextStore arms it from store.Config.Faults;
// NewContextBackend callers set it here.
func (c *Context) SetFaults(r *faultinject.Registry) { c.faults = r }

// OpenStore opens the store stack a Context at the given level writes
// through. The reliability level is layered as a decorator over the
// backend selected by cfg, below cfg's incremental/async decorators, so
// deltas and staging buffers see logical checkpoint keys while replicas
// and parity land next to the primary copy. L4 forces cfg.Sync.
func OpenStore(cfg store.Config, level Level) (store.Backend, error) {
	if level < L1 || level > L4 {
		return nil, fmt.Errorf("checkpoint: invalid level %d", level)
	}
	cfg.Sync = cfg.Sync || level >= L4
	base, err := store.Open(cfg)
	if err != nil {
		return nil, err
	}
	return store.Decorate(store.Backend(newLevelBackend(base, level)), cfg), nil
}

// NewContextStore creates a checkpoint context over the stack OpenStore
// builds.
func NewContextStore(cfg store.Config, level Level) (*Context, error) {
	backend, err := OpenStore(cfg, level)
	if err != nil {
		return nil, err
	}
	c := &Context{backend: backend, level: level, faults: cfg.Faults}
	if err := c.resumeSeq(); err != nil {
		backend.Close()
		return nil, err
	}
	return c, nil
}

// NewContextBackend creates a checkpoint context over a caller-supplied
// backend (custom or remote stores); the reliability level is layered on
// top of it.
func NewContextBackend(b store.Backend, level Level) (*Context, error) {
	if level < L1 || level > L4 {
		return nil, fmt.Errorf("checkpoint: invalid level %d", level)
	}
	c := &Context{backend: newLevelBackend(b, level), level: level}
	if err := c.resumeSeq(); err != nil {
		return nil, err
	}
	return c, nil
}

// resumeSeq advances the write sequence past any checkpoints already in
// the store, so a restarted process appends after the previous session's
// checkpoints instead of overwriting them (re-writing ckpt-000001 while
// higher-numbered keys survive would leave stale objects shadowing the
// new state on the next Restart).
func (c *Context) resumeSeq() error {
	keys, err := c.backend.List()
	if err != nil {
		return err
	}
	for _, k := range keys {
		var n int
		if _, err := fmt.Sscanf(k, keyPrefix+"%d", &n); err == nil && n > c.seq {
			c.seq = n
		}
	}
	return nil
}

// Protect registers a variable. sizeBytes is rounded up to whole cells.
func (c *Context) Protect(name string, base uint64, sizeBytes int64) {
	cells := (sizeBytes + 7) / 8
	if cells < 1 {
		cells = 1
	}
	c.protected = append(c.protected, variable{Protected: Protected{Name: name, Base: base, Cells: cells}})
}

// LastBytes returns the size of the most recent checkpoint's primary
// image (the paper's Table IV reports checkpoint data volume, not
// replication overhead; with the incremental decorator the bytes actually
// persisted can be smaller — see StoreStats).
func (c *Context) LastBytes() int64 { return c.lastBytes }

// TotalBytes returns cumulative primary-image bytes.
func (c *Context) TotalBytes() int64 { return c.allBytes }

// Count returns the number of checkpoints written.
func (c *Context) Count() int { return c.count }

// StoreStats reports the storage backend's accounting (actual persisted
// bytes, skipped sections, keyframe/delta counts). It flushes pending
// asynchronous writes first.
func (c *Context) StoreStats() store.Stats { return c.backend.Stats() }

// Flush blocks until queued asynchronous checkpoints are durable and
// returns the first deferred write error.
func (c *Context) Flush() error { return c.backend.Flush() }

// Close flushes and closes the storage backend.
func (c *Context) Close() error { return c.backend.Close() }

// A cell is stored as its kind byte and eight little-endian payload bytes —
// a trace.Value's own representation, so neither direction looks at the
// kind beyond validating it.
const cellBytes = 9

func cellValue(cell []byte) trace.Value {
	return trace.BitsValue(trace.ValueKind(cell[0]), binary.LittleEndian.Uint64(cell[1:cellBytes]))
}

func validKind(kind byte) bool { return trace.ValueKind(kind) <= trace.KindPtr }

func encodeValue(buf []byte, v trace.Value) []byte {
	buf = append(buf, byte(v.Kind))
	return binary.LittleEndian.AppendUint64(buf, v.Bits())
}

// encodeCheckpoint snapshots the protected cells into one section per
// variable plus a metadata section. Under store.Backend's ownership rule
// the sections belong to the store once handed on, so a buffer is never
// written after it leaves here: a variable that was written gets a fresh
// one, and only the read-only section of an unwritten variable is handed
// on again.
func encodeCheckpoint(m *interp.Machine, protected []variable, iter int64) []store.Section {
	meta := make([]byte, 16)
	binary.LittleEndian.PutUint32(meta[0:4], magic)
	binary.LittleEndian.PutUint32(meta[4:8], version)
	binary.LittleEndian.PutUint64(meta[8:16], uint64(iter))
	sections := make([]store.Section, 0, len(protected)+1)
	sections = append(sections, store.Section{Name: metaSection, Data: meta})
	for i := range protected {
		v := &protected[i]
		sections = append(sections, store.Section{Name: v.Name, Data: v.encode(m)})
	}
	return sections
}

// encode returns the variable's section for m's memory as it is now. A
// variable nobody wrote since its last encode on this machine is not read:
// its watch is the same (a different machine, or the name protected again
// at another range, has another) and so is the write count. Otherwise the
// cells are read straight from memory into one exact-size buffer.
func (v *variable) encode(m *interp.Machine) []byte {
	w := m.Watch(v.Base, v.Cells)
	if w == v.watch && w.Writes() == v.writes {
		return v.section
	}
	data := make([]byte, 16+cellBytes*v.Cells)
	binary.LittleEndian.PutUint64(data[0:8], v.Base)
	binary.LittleEndian.PutUint64(data[8:16], uint64(v.Cells))
	cell := data[16:]
	for addr := v.Base; len(cell) > 0; addr, cell = addr+8, cell[cellBytes:] {
		c := m.Mem[addr] // a cell never written reads as integer zero
		cell[0] = byte(c.Kind)
		binary.LittleEndian.PutUint64(cell[1:cellBytes], c.Bits())
	}
	v.watch, v.writes, v.section = w, w.Writes(), data
	return data
}

// decodeCheckpoint restores the sections of one checkpoint object into m,
// skipping the names in skip, and returns the checkpoint's iteration. The
// whole object is checked first — each variable's cell count against its
// section's length, every kind byte — so nothing is allocated from a
// count the object merely declares, and an object that fails leaves m
// exactly as it was.
func decodeCheckpoint(m *interp.Machine, sections []store.Section, skip map[string]bool) (iter int64, err error) {
	if iter, err = iterOf(sections); err != nil {
		return 0, err
	}
	restored := 0
	for _, s := range sections[1:] {
		if strings.HasPrefix(s.Name, "~") {
			continue // decorator metadata
		}
		if len(s.Data) < 16 {
			return 0, fmt.Errorf("checkpoint: truncated record %q", s.Name)
		}
		cells := s.Data[16:]
		n := len(cells) / cellBytes
		if declared := binary.LittleEndian.Uint64(s.Data[8:16]); len(cells)%cellBytes != 0 || declared != uint64(n) {
			return 0, fmt.Errorf("checkpoint: record %q declares %d cells in %d bytes", s.Name, declared, len(cells))
		}
		for i := 0; i < n; i++ {
			if kind := cells[i*cellBytes]; !validKind(kind) {
				return 0, fmt.Errorf("checkpoint: record %q: bad value kind %d", s.Name, kind)
			}
		}
		if !skip[s.Name] {
			restored += n
		}
	}
	m.Reserve(restored)
	var buf [128]trace.Value // decoded a run at a time: one WriteRange per run, nothing on the heap
	for _, s := range sections[1:] {
		if strings.HasPrefix(s.Name, "~") || skip[s.Name] {
			continue
		}
		addr, cells := binary.LittleEndian.Uint64(s.Data[0:8]), s.Data[16:]
		for len(cells) > 0 {
			n := min(len(buf), len(cells)/cellBytes)
			for i := range buf[:n] {
				buf[i] = cellValue(cells[i*cellBytes:])
			}
			m.WriteRange(addr, buf[:n])
			addr, cells = addr+uint64(n)*8, cells[n*cellBytes:]
		}
	}
	return iter, nil
}

// iterOf checks a checkpoint object's metadata section and returns the
// checkpoint's iteration.
func iterOf(sections []store.Section) (int64, error) {
	if len(sections) == 0 || sections[0].Name != metaSection {
		return 0, errors.New("checkpoint: missing metadata section")
	}
	meta := sections[0].Data
	if len(meta) < 16 {
		return 0, errors.New("checkpoint: truncated metadata")
	}
	if binary.LittleEndian.Uint32(meta[0:4]) != magic || binary.LittleEndian.Uint32(meta[4:8]) != version {
		return 0, errors.New("checkpoint: bad magic or version")
	}
	return int64(binary.LittleEndian.Uint64(meta[8:16])), nil
}

// Retain sets the retention policy: after every successful Checkpoint,
// prune stored checkpoints older than the newest n. Objects a surviving
// checkpoint still needs are never deleted — with the incremental
// decorator a retained delta keeps its keyframe and every intermediate
// delta alive (store.DependencyResolver), so a prune can never orphan a
// restartable chain. n <= 0 disables pruning (the default: keep
// everything, the behavior every existing caller relies on).
//
// Pruning lists and deletes through the backend chain, which drains a
// pending asynchronous write first; callers stacking Retain on an async
// backend trade some write-latency hiding for bounded storage. What is
// traded is the background write itself, which a prune after every
// checkpoint waits for: about 0.3 ms of CPU per checkpoint of the
// benchmark's 288 KiB image (the file write, the chunk diff and the
// delta's digest). The prune's own reads are one List of the store.
func (c *Context) Retain(n int) {
	if n < 0 {
		n = 0
	}
	c.retain = n
}

// Checkpoint writes a checkpoint of all protected variables at the given
// iteration number. With an asynchronous backend it returns as soon as
// the cells are snapshotted into a staging buffer; write errors then
// surface on a later Checkpoint, Flush, or Close. When a retention
// policy is set (Retain), older checkpoints are pruned after the write;
// a prune failure is returned even though the new checkpoint itself is
// durable.
func (c *Context) Checkpoint(m *interp.Machine, iter int64) error {
	if c.seq >= maxSeq {
		return ErrSequenceExhausted
	}
	sections := encodeCheckpoint(m, c.protected, iter)
	c.seq++
	if err := c.faults.Hit(SiteCheckpointPut); err != nil {
		return err
	}
	if err := c.backend.Put(c.key(c.seq), sections); err != nil {
		return err
	}
	// The image is with the backend (with an async decorator: queued and
	// accepted). A crash injected here models dying after the commit
	// but before acknowledging it — the sequence resumption in resumeSeq
	// and Restart's newest-first scan must both cope with a checkpoint
	// the writer never accounted for.
	if err := c.faults.Hit(SiteCheckpointCommitted); err != nil {
		return err
	}
	c.lastBytes = store.EncodedSize(sections)
	c.allBytes += c.lastBytes
	c.count++
	if c.retain > 0 {
		if err := c.prune(); err != nil {
			return fmt.Errorf("checkpoint: seq %d written, but retention prune failed: %w", c.seq, err)
		}
	}
	return nil
}

// prune deletes checkpoints older than the newest c.retain, keeping any
// object a retained checkpoint's reconstruction still depends on.
func (c *Context) prune() error {
	if err := c.faults.Hit(SiteCheckpointPrune); err != nil {
		return err
	}
	keys, err := c.backend.List()
	if err != nil {
		return err
	}
	ckpts := keys[:0:0]
	for _, k := range keys {
		if strings.HasPrefix(k, keyPrefix) {
			ckpts = append(ckpts, k)
		}
	}
	if len(ckpts) <= c.retain {
		return nil
	}
	// List order is lexicographic = chronological; the tail is retained.
	retained := ckpts[len(ckpts)-c.retain:]
	required := make(map[string]bool, len(retained))
	for _, k := range retained {
		deps, err := store.DependenciesOf(c.backend, k)
		if err != nil {
			return err
		}
		for _, d := range deps {
			required[d] = true
		}
	}
	for _, k := range ckpts[:len(ckpts)-c.retain] {
		if required[k] {
			continue
		}
		if err := c.backend.Delete(k); err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
		c.pruned++
	}
	return nil
}

func (c *Context) key(seq int) string { return fmt.Sprintf("%s%06d", keyPrefix, seq) }

// Restart locates the latest valid checkpoint (the backend falls back to
// the partner copy when the primary is corrupted and the level wrote one)
// and restores all protected variables into the machine's memory,
// skipping any names in the skip set. It returns the checkpoint's
// iteration number. It is RestartAt with no bound.
func (c *Context) Restart(m *interp.Machine, skip map[string]bool) (int64, error) {
	return c.RestartAt(m, skip, math.MaxInt64)
}

// RestartAt is Restart restricted to checkpoints of an iteration no later
// than atMost: the newest valid one among them is restored, and newer
// ones are read but left unwritten. A run of many ranks restarts each at
// the recovery line through it (validate.FailStop.Recover).
func (c *Context) RestartAt(m *interp.Machine, skip map[string]bool, atMost int64) (int64, error) {
	keys, err := c.backend.List()
	if err != nil {
		return 0, err
	}
	var candidates []string
	for _, k := range keys {
		if strings.HasPrefix(k, keyPrefix) {
			candidates = append(candidates, k)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(candidates)))
	for _, key := range candidates {
		sections, err := c.backend.Get(key)
		if err != nil {
			continue // corrupted or torn: fall back to the previous checkpoint
		}
		if iter, err := iterOf(sections); err != nil || iter > atMost {
			continue // past the bound, or no metadata: fall back likewise
		}
		iter, err := decodeCheckpoint(m, sections, skip)
		if err != nil {
			continue // fails validation: the machine is untouched, fall back likewise
		}
		return iter, nil
	}
	return 0, ErrNoCheckpoint
}
