package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// ChainBrokenError is returned by Incremental.Get when the delta chain
// beneath a key can no longer reconstruct it: its keyframe is gone, an
// intermediate delta was deleted, or a link's recorded predecessor
// digest does not match the object actually stored beneath it. It is a
// typed refusal to fabricate state — callers (checkpoint.Restart, the
// chaos harness) treat it like any other verification failure and fall
// back to an older checkpoint. The retention path never provokes it:
// checkpoint.Context.Retain resolves Dependencies before deleting, so
// only out-of-band deletes (or lost objects) break a chain.
type ChainBrokenError struct {
	Key    string // the key whose reconstruction failed
	Link   string // the chain link that is missing or mismatched ("" if unknown)
	Reason string
	Err    error // underlying cause when a link read failed (nil for structural breaks)
}

func (e *ChainBrokenError) Error() string {
	reason := e.Reason
	if e.Err != nil {
		reason = e.Err.Error()
	}
	if e.Link != "" {
		return fmt.Sprintf("store: delta chain for %q broken at %q: %s", e.Key, e.Link, reason)
	}
	return fmt.Sprintf("store: delta chain for %q broken: %s", e.Key, reason)
}

// Unwrap exposes the cause of a failed link read, so callers can still
// tell "the chain is structurally broken" from "one read failed"
// (errors.Is(err, ErrNotFound), an injected fault, a remote 5xx).
func (e *ChainBrokenError) Unwrap() error { return e.Err }

// Incremental decorates a backend with delta checkpoints: every Keyframe
// puts it writes the full object (a keyframe); in between it writes only
// the sections whose bytes differ from the previous put's, and a
// changed section larger than one chunk is stored as chunk-level patches
// against its previous content. Restart therefore reads at most one
// keyframe plus the deltas up to the requested key, and a checkpoint of a
// mostly-unchanged protected set costs only the changed bytes — the
// differential counterpart to the paper's "checkpoint only the critical
// variables" storage argument. The diff basis is the previous put's
// sections themselves, kept rather than copied since the store owns them
// (see Backend); a section handed over again unchanged, as the checkpoint
// layer does, is the same slice and compares equal at once.
//
// The section name "~incr" is reserved for this decorator's metadata;
// the checkpoint layer's own names (variable names plus its "~ckpt"
// metadata section) cannot collide with it.
//
// Each delta records the digest of the object it was diffed against, and
// Get re-derives that digest while walking the chain, so a delta is bound
// to the exact predecessor content it patched. A delta left over from an
// earlier session whose keyframe has since been overwritten (or any other
// base/delta mismatch) fails reconstruction with an error instead of
// silently patching stale chunks onto new content.
type Incremental struct {
	inner    Backend
	keyframe int
	chunk    int
	faults   *faultinject.Registry
	ops      opSet
	// obsKeyframes/obsDeltas mirror the object-kind counters into obs
	// (nil when disabled) so /v1/metrics shows the keyframe/delta mix.
	obsKeyframes, obsDeltas *obs.Counter

	mu         sync.Mutex
	puts       int
	baseKey    string // key of the current keyframe
	prevKey    string // key of the last stored object
	prevDigest uint64 // digest of the last stored object, the next delta's predecessor
	// prev is the last stored put's sections, as the caller handed them
	// over (read-only under Backend's rule): a delta has their names, in
	// order, and diffs each section against the one at its position.
	prev []Section
	// ledger is every object this session stored and has not deleted, keys
	// ascending, each with the ordinal of its delta chain: a key's
	// dependencies are the run of its chain that ends at it. Dependencies
	// answers from it without touching the store.
	ledger []stored
	chain  int
	stats  Stats // local counters folded into inner's
}

type stored struct {
	key   string
	chain int
}

// Defaults for NewIncremental's parameters.
const (
	DefaultKeyframe   = 8
	DefaultChunkBytes = 256
)

const (
	incrMetaSection = "~incr"
	kindKeyframe    = byte(0)
	// kindDeltaV1 was the pre-digest delta format, whose metadata held
	// only the base key. It is retired, not reused: parseObject rejects
	// it explicitly rather than misreading key bytes as a digest.
	kindDeltaV1 = byte(1)
	// kindDeltaFNV is a delta whose predecessor digest is
	// objectDigestFNV. Nothing writes it any more, but stores that hold it
	// still restart.
	kindDeltaFNV = byte(2)
	// kindDelta is a delta whose predecessor digest is objectDigest. Its
	// metadata is laid out as kindDeltaFNV's: the kind, the 8-byte digest,
	// the base key.
	kindDelta = byte(3)
	encFull   = byte(0)
	encPatch  = byte(1)
)

// NewIncremental wraps inner with the delta write path. keyframe is the
// full-checkpoint period and chunkBytes the intra-section diff
// granularity (<= 0 selects the defaults).
func NewIncremental(inner Backend, keyframe, chunkBytes int) *Incremental {
	if keyframe <= 0 {
		keyframe = DefaultKeyframe
	}
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &Incremental{inner: inner, keyframe: keyframe, chunk: chunkBytes}
}

// crcCastagnoli is the table crc32.Update recognises for its CRC-32C
// hardware path (crc32.IEEETable is the IEEE one's).
var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// objectDigest fingerprints a stored object so a delta can be bound to the
// exact predecessor content it was diffed against. It hashes a framed
// stream: for each section, its name length as an 8-byte little-endian
// word, the name, its data length likewise, and the data. The digest is
// the stream's CRC-32 (IEEE) in the high 32 bits and its CRC-32C
// (Castagnoli) in the low 32. The two generator polynomials are coprime,
// so the pair acts as one degree-64 CRC: it catches every error burst of
// up to 64 bits, and a random mismatch passes with probability 2^-64. It
// detects accidents, such as a stale delta over a rewritten base, and
// authenticates nothing.
//
// The data goes through crc32.Update's hardware paths. The framing words
// and the names, a few bytes each, are folded in from the tables: a stack
// buffer or a converted string handed to crc32.Update would escape to the
// heap, and the digest allocates nothing.
func objectDigest(sections []Section) uint64 {
	var ieee, castagnoli uint32
	for _, s := range sections {
		ieee = crcFrame(ieee, crc32.IEEETable, uint64(len(s.Name)), s.Name)
		ieee = crcFrame(ieee, crc32.IEEETable, uint64(len(s.Data)), "")
		ieee = crc32.Update(ieee, crc32.IEEETable, s.Data)
		castagnoli = crcFrame(castagnoli, crcCastagnoli, uint64(len(s.Name)), s.Name)
		castagnoli = crcFrame(castagnoli, crcCastagnoli, uint64(len(s.Data)), "")
		castagnoli = crc32.Update(castagnoli, crcCastagnoli, s.Data)
	}
	return uint64(ieee)<<32 | uint64(castagnoli)
}

// crcFrame extends crc, as crc32.Update would, over the 8-byte
// little-endian word n followed by the bytes of s.
func crcFrame(crc uint32, tab *crc32.Table, n uint64, s string) uint32 {
	crc = ^crc
	for i := 0; i < 8; i++ {
		crc = tab[byte(crc)^byte(n>>(8*i))] ^ crc>>8
	}
	for i := 0; i < len(s); i++ {
		crc = tab[byte(crc)^s[i]] ^ crc>>8
	}
	return ^crc
}

// objectDigestFNV is the predecessor digest of kindDeltaFNV: FNV-1a over
// objectDigest's framed stream.
func objectDigestFNV(sections []Section) uint64 {
	h := fnv.New64a()
	var lenBuf [8]byte
	for _, s := range sections {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s.Name)))
		h.Write(lenBuf[:])
		h.Write([]byte(s.Name))
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s.Data)))
		h.Write(lenBuf[:])
		h.Write(s.Data)
	}
	return h.Sum64()
}

// SetFaults implements FaultInjectable.
func (inc *Incremental) SetFaults(r *faultinject.Registry) { inc.faults = r }

// SetObs implements Observable.
func (inc *Incremental) SetObs(r *obs.Registry) {
	inc.ops = newOpSet(r, "store.incr")
	inc.obsKeyframes = r.Counter("store.incr.keyframes")
	inc.obsDeltas = r.Counter("store.incr.deltas")
}

// Put implements Backend. The recorded latency covers the diff/encode
// work plus the inner write; get latency covers chain reconstruction.
func (inc *Incremental) Put(key string, sections []Section) error {
	start := inc.ops.put.Start()
	err := inc.put(key, sections)
	inc.ops.put.Done(start, 0, errClass(err))
	return err
}

func (inc *Incremental) put(key string, sections []Section) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if err := inc.faults.Hit(SiteIncrementalPut); err != nil {
		return err
	}
	// A key that does not sort after the last stored object (e.g. an
	// overwrite of an existing object) cannot be expressed as a delta:
	// reconstruction walks keys in (baseKey, key] order, and a delta over
	// an overwritten predecessor would fail the digest-chain check. Nor can
	// a put whose sections are not the previous put's (so the keyframe's),
	// name for name: reconstruction overlays a chain's sections, so a delta
	// can change a section but never drop, add or reorder one.
	isKeyframe := inc.baseKey == "" || inc.puts%inc.keyframe == 0 || key <= inc.prevKey || !sameNames(sections, inc.prev)
	inc.puts++

	var out []Section
	if isKeyframe {
		out = make([]Section, 0, len(sections)+1)
		out = append(out, Section{Name: incrMetaSection, Data: []byte{kindKeyframe}})
		for _, s := range sections {
			out = append(out, Section{Name: s.Name, Data: fullPayload(s.Data)})
		}
	} else {
		meta := []byte{kindDelta}
		meta = binary.LittleEndian.AppendUint64(meta, inc.prevDigest)
		meta = append(meta, inc.baseKey...)
		out = append(out, Section{Name: incrMetaSection, Data: meta})
		for i, s := range sections {
			prev := inc.prev[i].Data
			if bytes.Equal(prev, s.Data) {
				inc.stats.SectionsSkipped++
				continue
			}
			out = append(out, Section{Name: s.Name, Data: deltaPayload(prev, s.Data, inc.chunk)})
		}
	}
	// The basis advances only once the write lands: after a failed Put the
	// next delta must still carry the changes that were never persisted.
	if err := inc.inner.Put(key, out); err != nil {
		return err
	}
	if isKeyframe {
		if key <= inc.prevKey {
			inc.ledger = nil // an overwrite: what is stored beneath older keys is no longer what this session wrote
		}
		inc.chain++
		inc.baseKey = key
		inc.stats.Keyframes++
		inc.obsKeyframes.Inc()
	} else {
		inc.stats.Deltas++
		inc.obsDeltas.Inc()
	}
	inc.ledger = append(inc.ledger, stored{key, inc.chain})
	inc.prev = sections
	inc.prevKey = key
	inc.prevDigest = objectDigest(out)
	return nil
}

func sameNames(a, b []Section) bool {
	return slices.EqualFunc(a, b, func(x, y Section) bool { return x.Name == y.Name })
}

// fullPayload is a section stored whole: encFull, then its bytes.
func fullPayload(data []byte) []byte {
	return append(append(make([]byte, 0, 1+len(data)), encFull), data...)
}

// deltaPayload is a delta's payload for a section whose bytes changed from
// prev: the chunks of cur that differ, as encPatch and a patch, when prev
// has cur's length and the patch is smaller than cur; cur whole otherwise.
// The chunks are compared before anything is built, so the one payload is
// built in a buffer of its exact size.
func deltaPayload(prev, cur []byte, chunk int) []byte {
	if len(prev) != len(cur) {
		return fullPayload(cur)
	}
	size, n := 8, 0 // the patch: chunk size and count, then (offset, length, bytes) per chunk
	for off := 0; off < len(cur) && size < len(cur); off += chunk {
		if end := min(off+chunk, len(cur)); !bytes.Equal(prev[off:end], cur[off:end]) {
			size += 8 + end - off
			n++
		}
	}
	if size >= len(cur) {
		return fullPayload(cur)
	}
	buf := append(make([]byte, 0, 1+size), encPatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunk))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for off := 0; off < len(cur); off += chunk {
		if end := min(off+chunk, len(cur)); !bytes.Equal(prev[off:end], cur[off:end]) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(off))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(end-off))
			buf = append(buf, cur[off:end]...)
		}
	}
	return buf
}

// applyPatch writes patch's chunks over out, in place.
func applyPatch(out, patch []byte) error {
	if len(patch) < 8 {
		return errors.New("store: truncated patch header")
	}
	n := int(binary.LittleEndian.Uint32(patch[4:8]))
	rest := patch[8:]
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return errors.New("store: truncated patch entry")
		}
		off := int(binary.LittleEndian.Uint32(rest[:4]))
		length := int(binary.LittleEndian.Uint32(rest[4:8]))
		rest = rest[8:]
		if length < 0 || len(rest) < length || off < 0 || off+length > len(out) {
			return errors.New("store: patch out of bounds")
		}
		copy(out[off:off+length], rest[:length])
		rest = rest[length:]
	}
	return nil
}

// parseObject splits a stored object into its kind, base key, predecessor
// digest (deltas only), and payload sections.
func parseObject(sections []Section) (kind byte, baseKey string, predDigest uint64, payload []Section, err error) {
	if len(sections) == 0 || sections[0].Name != incrMetaSection || len(sections[0].Data) < 1 {
		return 0, "", 0, nil, errors.New("store: object missing incremental metadata")
	}
	meta := sections[0].Data
	kind, payload = meta[0], sections[1:]
	switch kind {
	case kindKeyframe:
		return kind, "", 0, payload, nil
	case kindDeltaV1:
		return 0, "", 0, nil, errors.New("store: delta written by the obsolete pre-digest format")
	case kindDeltaFNV, kindDelta:
		if len(meta) < 9 {
			return 0, "", 0, nil, errors.New("store: truncated delta metadata")
		}
		return kind, string(meta[9:]), binary.LittleEndian.Uint64(meta[1:9]), payload, nil
	}
	return 0, "", 0, nil, fmt.Errorf("store: unknown incremental object kind %d", kind)
}

// Get implements Backend: reconstruct the object at key from its keyframe
// plus every delta up to key, in List order. Each delta's recorded
// predecessor digest is checked against the digest of the object actually
// beneath it in the chain, computed the way that delta's kind computes it
// (kindDeltaFNV or kindDelta), so a delta diffed against content that has
// since been replaced (e.g. a keyframe overwritten by a later session)
// fails with an error instead of reconstructing fabricated state.
func (inc *Incremental) Get(key string) ([]Section, error) {
	start := inc.ops.get.Start()
	sections, err := inc.get(key)
	inc.ops.get.Done(start, 0, errClass(err))
	return sections, err
}

func (inc *Incremental) get(key string) ([]Section, error) {
	obj, err := inc.inner.Get(key)
	if err != nil {
		return nil, err
	}
	kind, baseKey, predDigest, payload, err := parseObject(obj)
	if err != nil {
		return nil, err
	}
	if kind == kindKeyframe {
		return decodeFull(payload)
	}
	keys, err := inc.inner.List()
	if err != nil {
		return nil, err
	}
	var chain []string
	for _, k := range keys {
		if k >= baseKey && k < key {
			chain = append(chain, k)
		}
	}
	if len(chain) == 0 || chain[0] != baseKey {
		return nil, &ChainBrokenError{Key: key, Link: baseKey, Reason: "keyframe is gone"}
	}
	var order []string
	var below []Section // the stored object beneath the next link
	state := make(map[string]rebuilt)
	for i, k := range chain {
		prior, err := inc.inner.Get(k)
		if err != nil {
			return nil, &ChainBrokenError{Key: key, Link: k, Reason: "reading chain link", Err: err}
		}
		priorKind, _, priorPred, sections, err := parseObject(prior)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if priorKind != kindKeyframe {
				return nil, &ChainBrokenError{Key: key, Link: k, Reason: "base of the chain is not a keyframe"}
			}
		} else if priorKind == kindKeyframe || priorPred != predecessorDigest(priorKind, below) {
			return nil, &ChainBrokenError{Key: key, Link: k,
				Reason: fmt.Sprintf("delta does not descend from the stored %q (deleted intermediate, or stale delta from an earlier chain)", chain[i-1])}
		}
		below = prior
		if order, err = overlay(state, order, sections); err != nil {
			return nil, err
		}
	}
	if predDigest != predecessorDigest(kind, below) {
		return nil, &ChainBrokenError{Key: key, Link: chain[len(chain)-1],
			Reason: "delta does not descend from the stored predecessor (deleted intermediate, or stale delta from an earlier chain)"}
	}
	if order, err = overlay(state, order, payload); err != nil {
		return nil, err
	}
	out := make([]Section, len(order))
	for i, name := range order {
		out[i] = Section{Name: name, Data: state[name].data}
	}
	return out, nil
}

// predecessorDigest is the digest a delta of the given kind records for
// the object stored beneath it, with the algorithm that kind was written
// with.
func predecessorDigest(kind byte, below []Section) uint64 {
	if kind == kindDeltaFNV {
		return objectDigestFNV(below)
	}
	return objectDigest(below)
}

func decodeFull(payload []Section) ([]Section, error) {
	out := make([]Section, len(payload))
	for i, s := range payload {
		if len(s.Data) < 1 || s.Data[0] != encFull {
			return nil, fmt.Errorf("store: keyframe section %q not full-encoded", s.Name)
		}
		out[i] = Section{Name: s.Name, Data: s.Data[1:]}
	}
	return out, nil
}

// rebuilt is one section of a reconstruction: its bytes, and whether they
// are the Get's own copy, which a patch writes in place. Bytes a link
// stored whole are shared with the link until a patch first needs them.
type rebuilt struct {
	data []byte
	own  bool
}

// overlay applies one stored object's sections onto the reconstruction
// state, returning the updated section order.
func overlay(state map[string]rebuilt, order []string, sections []Section) ([]string, error) {
	for _, s := range sections {
		if len(s.Data) < 1 {
			return nil, fmt.Errorf("store: empty payload for section %q", s.Name)
		}
		enc, data := s.Data[0], s.Data[1:]
		switch enc {
		case encFull:
			if _, ok := state[s.Name]; !ok {
				order = append(order, s.Name)
			}
			state[s.Name] = rebuilt{data: data}
		case encPatch:
			r, ok := state[s.Name]
			if !ok {
				return nil, fmt.Errorf("store: patch for unknown section %q", s.Name)
			}
			if !r.own {
				r = rebuilt{data: append([]byte(nil), r.data...), own: true} // shares a Get result: patch a copy
			}
			if err := applyPatch(r.data, data); err != nil {
				return nil, fmt.Errorf("store: section %q: %w", s.Name, err)
			}
			state[s.Name] = r
		default:
			return nil, fmt.Errorf("store: section %q: bad encoding %d", s.Name, enc)
		}
	}
	return order, nil
}

// Dependencies implements DependencyResolver: a keyframe depends only on
// itself; a delta depends on every key from its keyframe up to itself —
// exactly the chain Get walks to reconstruct it. The retention policy
// uses this to never delete a keyframe (or intermediate delta) still
// referenced by a retained chain.
//
// A key this session stored — retention always retains the newest keys,
// so in steady state all of them — is answered from the ledger without a
// List or a Get: resolving the retained set after every checkpoint would
// otherwise list the store once per key and read every object of an
// older chain in full just to parse its metadata. Keys from earlier
// sessions fall back to reading the stored metadata.
func (inc *Incremental) Dependencies(key string) ([]string, error) {
	inc.mu.Lock()
	if i, ok := inc.find(key); ok {
		first := i
		for first > 0 && inc.ledger[first-1].chain == inc.ledger[i].chain {
			first--
		}
		deps := make([]string, 0, i-first+1)
		for _, s := range inc.ledger[first : i+1] {
			deps = append(deps, s.key)
		}
		inc.mu.Unlock()
		return deps, nil
	}
	inc.mu.Unlock()
	obj, err := inc.inner.Get(key)
	if err != nil {
		return nil, err
	}
	kind, baseKey, _, _, err := parseObject(obj)
	if err != nil {
		return nil, err
	}
	if kind == kindKeyframe {
		return []string{key}, nil
	}
	keys, err := inc.inner.List()
	if err != nil {
		return nil, err
	}
	var deps []string
	for _, k := range keys {
		if k >= baseKey && k <= key {
			deps = append(deps, k)
		}
	}
	return deps, nil
}

// find locates key in the ledger. Callers hold inc.mu.
func (inc *Incremental) find(key string) (int, bool) {
	return slices.BinarySearchFunc(inc.ledger, key, func(s stored, key string) int { return strings.Compare(s.key, key) })
}

// List implements Backend.
func (inc *Incremental) List() ([]string, error) { return inc.inner.List() }

// Delete implements Backend. Deleting a keyframe orphans its deltas (Get
// on them fails cleanly), which is why retention asks Dependencies before
// it deletes. A deleted key leaves the ledger with its object.
func (inc *Incremental) Delete(key string) error {
	err := inc.inner.Delete(key)
	if err == nil || errors.Is(err, ErrNotFound) {
		inc.mu.Lock()
		if i, ok := inc.find(key); ok {
			inc.ledger = slices.Delete(inc.ledger, i, i+1)
		}
		inc.mu.Unlock()
	}
	return err
}

// Stats implements Backend: the inner backend's persisted numbers plus
// this decorator's delta accounting.
func (inc *Incremental) Stats() Stats {
	s := inc.inner.Stats()
	inc.mu.Lock()
	s.SectionsSkipped += inc.stats.SectionsSkipped
	s.Keyframes += inc.stats.Keyframes
	s.Deltas += inc.stats.Deltas
	inc.mu.Unlock()
	return s
}

// Flush implements Backend.
func (inc *Incremental) Flush() error { return inc.inner.Flush() }

// Close implements Backend.
func (inc *Incremental) Close() error { return inc.inner.Close() }
