// Package store is the checkpoint storage engine: a pluggable Backend
// interface over keyed, sectioned objects. The base backends hold the
// objects (Memory, File, and Remote and Replicated over the checkpoint
// service); Cached is a read tier over a base; Incremental (delta
// objects) and Async (background writes) decorate the write path.
//
// A checkpoint is stored as one object per key; an object is an ordered
// list of named sections — for the checkpoint layer, one section per
// protected variable plus a small metadata section. Keeping sections
// first-class lets the incremental decorator re-write only the variables
// whose bytes changed since the previous checkpoint (FTI-style
// differential checkpointing).
//
// What crosses a layer is read-only, so no layer copies it (see Backend).
//
// Keys must sort lexicographically in chronological order (the checkpoint
// layer uses zero-padded sequence numbers); the incremental decorator and
// the restart path both rely on List() order for recovery.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// Section is one named chunk of an object. The checkpoint layer writes
// one section per protected variable.
type Section struct {
	Name string
	Data []byte
}

// Stats is the cumulative accounting a backend reports. Decorators fold
// their own counters into the inner backend's numbers.
type Stats struct {
	Puts, Gets, Deletes int64
	BytesWritten        int64 // bytes handed to the persistence medium
	BytesRead           int64
	SectionsWritten     int64
	SectionsSkipped     int64 // unchanged sections elided by the incremental decorator
	Keyframes, Deltas   int64 // incremental decorator object kinds
	CacheHits           int64 // Gets served by a cached object without an inner read
	CacheFollowerHits   int64 // Gets served by sharing another caller's in-flight inner read
	CacheMisses         int64 // Gets that had to reach the inner backend
	Repairs             int64 // replicas overwritten by read-repair or the scrubber
	HedgesFired         int64 // replicated Gets that launched a hedge request
	HedgesWon           int64 // hedge requests that produced the winning answer
}

// ErrNotFound is returned by Get and Delete for a missing key.
var ErrNotFound = errors.New("store: object not found")

// ErrCorrupt is returned by Get when the CRC framing rejects a torn or
// bit-flipped object. The message keeps the historical wording.
var ErrCorrupt = errors.New("store: object CRC mismatch (corrupted)")

// Backend is a keyed object store for checkpoint images.
//
// Implementations must be safe for concurrent use. Get must verify
// integrity (every backend frames objects with a CRC-32) and fail rather
// than return torn or bit-flipped data — the checkpoint layer's restart
// falls back to an older checkpoint on any Get error.
//
// One ownership rule holds across every layer: what crosses it is
// read-only. The sections handed to Put — the slice and every Data — and
// the blob handed to PutBlob (BlobStore) belong to the store from the call
// on; it may keep, share and hand them out again, and nobody writes them
// again. Sections and blobs returned by Get and GetBlob may share memory
// with the store and with other readers, so the caller never writes them
// either. A layer that needs other bytes (a patch, a parity block, an
// encoding) builds new ones.
type Backend interface {
	// Put persists the object under key, replacing any previous object.
	Put(key string, sections []Section) error
	// Get retrieves and verifies the object.
	Get(key string) ([]Section, error)
	// List returns all keys in lexicographic (= chronological) order.
	List() ([]string, error)
	// Delete removes an object (ErrNotFound if absent).
	Delete(key string) error
	// Stats reports cumulative accounting.
	Stats() Stats
	// Flush blocks until queued writes are durable and reports the first
	// deferred write error (asynchronous decorator); no-op otherwise.
	Flush() error
	// Close flushes and releases resources.
	Close() error
}

// Kind selects a concrete backend.
type Kind int

// Backend kinds. KindFile is the zero value so a zero Config preserves
// the original on-disk behavior of internal/checkpoint.
const (
	KindFile Kind = iota
	KindMemory
	KindRemote
	KindReplicated
)

func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindMemory:
		return "memory"
	case KindRemote:
		return "remote"
	case KindReplicated:
		return "replicated"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a backend name as accepted by the -store CLI flag.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "file", "":
		return KindFile, nil
	case "memory", "mem":
		return KindMemory, nil
	case "remote":
		return KindRemote, nil
	case "replicated":
		return KindReplicated, nil
	}
	return 0, fmt.Errorf("store: unknown backend kind %q (want file, memory, remote, or replicated)", s)
}

// Config selects and parameterizes a backend chain.
type Config struct {
	Kind Kind
	Dir  string // root directory (file kind); namespace seed (remote kind)
	Sync bool   // fsync every write (checkpoint level L4)

	Addr      string // remote kind: checkpoint service address (host:port or URL)
	Namespace string // remote/replicated kinds: key namespace on the service (default: derived from Dir)
	CacheMB   int    // wrap the base backend with a read-through LRU cache of this many MB

	// Replicated kind: the cluster's service addresses plus quorum and
	// tail-latency policy. See NewReplicated for the semantics and
	// defaults of each knob.
	Addrs       []string      // replica service addresses, in replica-index order
	WriteQuorum int           // Put succeeds after this many replica acks (default majority)
	ReadQuorum  int           // Get decides after this many definitive replica answers (default majority)
	HedgeAfter  time.Duration // hedge a slow replica read after this long (0 = default, <0 = disabled)

	Async       bool // wrap with the async double-buffered decorator
	Incremental bool // wrap with the delta/incremental decorator
	Keyframe    int  // incremental: full checkpoint every N puts (default 8)

	// Faults, when set, arms deterministic fault injection on every
	// layer Open/Decorate construct. nil (the default) leaves the sites
	// as nil checks — the hot paths are unchanged.
	Faults *faultinject.Registry

	// Obs, when set, arms per-operation telemetry (latency histograms,
	// byte counters, error-class counters, retry counters) on every layer
	// Open/Decorate construct. nil (the default) leaves each call site
	// as a nil check — disabled telemetry costs nothing on hot paths.
	Obs *obs.Registry
}

// Failpoint sites of the store package. The base backends share one set
// of role-named sites (exactly one base sits in any chain, so a schedule
// like "store.put=torn@nth=3" means the same thing on every stack);
// decorators get their own.
const (
	// SitePut guards a base backend's object commit and carries the
	// encoded blob (HitBlob): error aborts before the medium is touched,
	// torn persists a truncated object, crash kills the goroutine
	// mid-commit.
	SitePut = "store.put"
	// SiteGet guards a base backend's object read.
	SiteGet = "store.get"
	// SiteDelete guards a base backend's object removal.
	SiteDelete = "store.delete"
	// SiteAsyncPut fires on the synchronous half of an async Put, before
	// the sections are queued.
	SiteAsyncPut = "async.put"
	// SiteAsyncWriter fires on the background writer, before it hands a
	// queued checkpoint to the inner backend; errors and crashes surface
	// as the decorator's deferred write error.
	SiteAsyncWriter = "async.writer"
	// SiteAsyncDelete fires inside Async.Delete's critical section,
	// after pending writes drained and before the inner delete — the
	// exact window of the delete/buffered-put ordering race.
	SiteAsyncDelete = "async.delete"
	// SiteIncrementalPut fires before the incremental decorator decides
	// between keyframe and delta.
	SiteIncrementalPut = "incr.put"
	// SiteCachedLeader fires on a cache miss's single-flight leader,
	// after it won the flight and before it reads the inner backend —
	// the window in which a concurrent Delete or failing leader must not
	// poison followers.
	SiteCachedLeader = "cached.get.leader"
	// SiteRemoteDo fires before every HTTP attempt of the remote client,
	// injected failures counting as transient network errors against the
	// retry budget.
	SiteRemoteDo = "remote.do"
	// SiteReplicatedScrub fires once per key ScrubOnce examines; a crash
	// aborts the sweep and reaches ScrubOnce's caller.
	SiteReplicatedScrub = "store.replicated.scrub"
)

// Per-replica failpoint sites of the replicated tier: each replica's
// write queue and read path evaluate their own sites, so a chaos
// schedule can kill, partition, or slow exactly one node of the cluster
// deterministically. Hit order per site is deterministic because every
// replica applies its own operations in submission order.
func SiteReplicaPut(i int) string    { return fmt.Sprintf("store.replicated.r%d.put", i) }
func SiteReplicaGet(i int) string    { return fmt.Sprintf("store.replicated.r%d.get", i) }
func SiteReplicaDelete(i int) string { return fmt.Sprintf("store.replicated.r%d.delete", i) }

// FaultInjectable is implemented by every backend and decorator in this
// package: SetFaults arms (or, with nil, disarms) the layer's own
// failpoint sites. It does not recurse — Open and Decorate arm each
// layer as they build the chain.
type FaultInjectable interface {
	SetFaults(*faultinject.Registry)
}

// InjectFaults arms b's own failpoint sites when it has any.
func InjectFaults(b Backend, r *faultinject.Registry) {
	if fi, ok := b.(FaultInjectable); ok {
		fi.SetFaults(r)
	}
}

// Observable is implemented by every backend and decorator in this
// package: SetObs arms (or, with nil, disarms) the layer's telemetry.
// Like SetFaults it does not recurse — Open and Decorate arm each layer
// as they build the chain. Instrument names follow "store.<layer>.<op>".
type Observable interface {
	SetObs(*obs.Registry)
}

// InjectObs arms b's own telemetry when it has any.
func InjectObs(b Backend, r *obs.Registry) {
	if o, ok := b.(Observable); ok {
		o.SetObs(r)
	}
}

// opSet bundles the per-operation recorders one layer holds. The zero
// value (the disabled state) is fully no-op: each recorder is nil and
// its Start/Done calls reduce to a nil check without reading the clock.
type opSet struct {
	put, get, del, list *obs.Op
}

// newOpSet resolves the four standard per-op recorders for a layer
// ("store.memory", "store.cached", ...). A nil registry yields the
// disabled zero value.
func newOpSet(r *obs.Registry, layer string) opSet {
	if r == nil {
		return opSet{}
	}
	return opSet{
		put:  r.Op(layer + ".put"),
		get:  r.Op(layer + ".get"),
		del:  r.Op(layer + ".delete"),
		list: r.Op(layer + ".list"),
	}
}

// errClass buckets an operation error for telemetry; "" means success.
// The classes are the failure modes an operator acts on differently:
// not_found (expected absence), corrupt (CRC framing rejected the
// object), chain_broken (incremental delta chain unreconstructable),
// unavailable (a replica endpoint is down — dial refused or quorum
// lost), injected (deterministic fault injection, so chaos runs don't
// read as real faults), and io for everything else.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, ErrNotFound) {
		return "not_found"
	}
	if errors.Is(err, ErrCorrupt) {
		return "corrupt"
	}
	if errors.Is(err, ErrUnavailable) {
		return "unavailable"
	}
	if errors.Is(err, faultinject.ErrInjected) {
		return "injected"
	}
	var chain *ChainBrokenError
	if errors.As(err, &chain) {
		return "chain_broken"
	}
	return "io"
}

// Open constructs the base backend selected by cfg, including the cache
// tier when cfg.CacheMB is set — the cache is a property of how the base
// store is reached (it must sit below the reliability/incremental/async
// decorators so replicas and deltas are cached like any other object),
// not a write-path decorator; see Decorate for those.
func Open(cfg Config) (Backend, error) {
	b, err := openBase(cfg)
	if err != nil {
		return nil, err
	}
	InjectFaults(b, cfg.Faults)
	InjectObs(b, cfg.Obs)
	if cfg.CacheMB > 0 {
		b = NewCached(b, int64(cfg.CacheMB)<<20)
		InjectFaults(b, cfg.Faults)
		InjectObs(b, cfg.Obs)
	}
	return b, nil
}

func openBase(cfg Config) (Backend, error) {
	switch cfg.Kind {
	case KindMemory:
		return NewMemory(), nil
	case KindFile:
		if cfg.Dir == "" {
			return nil, errors.New("store: file backend needs a directory")
		}
		return NewFile(cfg.Dir, cfg.Sync)
	case KindRemote:
		if cfg.Addr == "" {
			return nil, errors.New("store: remote backend needs a service address")
		}
		ns := cfg.Namespace
		if ns == "" {
			ns = NamespaceForDir(cfg.Dir)
		}
		return NewRemote(cfg.Addr, ns)
	case KindReplicated:
		if len(cfg.Addrs) == 0 {
			return nil, errors.New("store: replicated backend needs replica addresses (Addrs)")
		}
		ns := cfg.Namespace
		if ns == "" {
			ns = NamespaceForDir(cfg.Dir)
		}
		replicas := make([]Backend, len(cfg.Addrs))
		for i, addr := range cfg.Addrs {
			rem, err := NewRemote(addr, ns)
			if err != nil {
				for _, r := range replicas[:i] {
					r.Close()
				}
				return nil, fmt.Errorf("store: replica %d: %w", i, err)
			}
			// A dead replica must fail fast so the tier moves on to the
			// next one; the single-endpoint remote keeps its patient
			// dial retries (it has nowhere else to go).
			rem.FailFastDial = true
			replicas[i] = rem
		}
		return NewReplicated(replicas, ReplicatedOptions{
			WriteQuorum: cfg.WriteQuorum,
			ReadQuorum:  cfg.ReadQuorum,
			HedgeAfter:  cfg.HedgeAfter,
		})
	}
	return nil, fmt.Errorf("store: unknown backend kind %d", cfg.Kind)
}

// Decorate applies the write-path decorators requested by cfg to b
// (incremental innermost, async outermost: the sections Async hands its
// background writer are read-only, so the deltas computed there diff
// exactly what Put was given).
func Decorate(b Backend, cfg Config) Backend {
	if cfg.Incremental {
		b = NewIncremental(b, cfg.Keyframe, 0)
		InjectFaults(b, cfg.Faults)
		InjectObs(b, cfg.Obs)
	}
	if cfg.Async {
		b = NewAsync(b)
		InjectFaults(b, cfg.Faults)
		InjectObs(b, cfg.Obs)
	}
	return b
}

// Object framing shared by the file-like backends: a small header, the
// sections, and a trailing CRC-32 that detects torn or bit-flipped
// objects.
const (
	objectMagic   = uint32(0x41435331) // "ACS1"
	objectVersion = uint32(1)
)

// EncodeSections frames sections as a single self-verifying byte object:
// frame's pieces copied into one buffer of exactly their size.
func EncodeSections(sections []Section) []byte {
	buf := make([]byte, 0, EncodedSize(sections))
	for _, p := range frame(sections) {
		buf = append(buf, p...)
	}
	return buf
}

// frame is the one definition of an object's encoding, laid out as the
// pieces that make it up when read back to back: the header, each
// section's name and lengths followed by its Data exactly as the caller
// handed it over, and the CRC-32 trailer computed over the pieces in
// order. The framing bytes share one buffer of their exact size; the
// section data is not copied, so under Backend's ownership rule every
// reading of the pieces reads the same bytes.
func frame(sections []Section) [][]byte {
	n := 16 // header + CRC
	for _, s := range sections {
		n += 12 + len(s.Name)
	}
	head := make([]byte, 0, n)
	head = binary.LittleEndian.AppendUint32(head, objectMagic)
	head = binary.LittleEndian.AppendUint32(head, objectVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(sections)))
	pieces := make([][]byte, 0, 2*len(sections)+1)
	var crc uint32
	from := 0 // where the framing not yet in pieces starts
	for _, s := range sections {
		head = binary.LittleEndian.AppendUint32(head, uint32(len(s.Name)))
		head = append(head, s.Name...)
		head = binary.LittleEndian.AppendUint64(head, uint64(len(s.Data)))
		if len(s.Data) == 0 {
			continue
		}
		crc = crc32.Update(crc, crc32.IEEETable, head[from:])
		crc = crc32.Update(crc, crc32.IEEETable, s.Data)
		pieces = append(pieces, head[from:], s.Data)
		from = len(head)
	}
	crc = crc32.Update(crc, crc32.IEEETable, head[from:])
	return append(pieces, binary.LittleEndian.AppendUint32(head, crc)[from:])
}

// EncodedSize returns len(EncodeSections(sections)) without encoding.
func EncodedSize(sections []Section) int64 {
	n := int64(16) // header + CRC
	for _, s := range sections {
		n += 12 + int64(len(s.Name)) + int64(len(s.Data))
	}
	return n
}

// DecodeSections verifies and parses an object produced by
// EncodeSections, in place: each non-empty section's Data shares buf,
// capped at its own end so an append never reaches the next section, and
// an empty one is nil. Like a Get result, the sections are read-only.
func DecodeSections(buf []byte) ([]Section, error) {
	n, rest, err := openObject(buf)
	if err != nil {
		return nil, err
	}
	sections := make([]Section, n)
	for i := range sections {
		var name, data []byte
		if name, data, rest, err = nextSection(rest); err != nil {
			return nil, err
		}
		if len(data) == 0 {
			data = nil
		}
		sections[i] = Section{Name: string(name), Data: data}
	}
	if len(rest) != 0 {
		return nil, errObjectTrailing
	}
	return sections, nil
}

// VerifySections checks an object exactly as DecodeSections does —
// framing, CRC, and every section header — and reports its section
// count, without allocating. It is the one gate between bytes that
// arrived off the wire and a backend that stores them as they are.
func VerifySections(buf []byte) (int, error) {
	n, rest, err := openObject(buf)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, _, rest, err = nextSection(rest); err != nil {
			return 0, err
		}
	}
	if len(rest) != 0 {
		return 0, errObjectTrailing
	}
	return n, nil
}

var (
	errObjectShort    = fmt.Errorf("%w: object too short", ErrCorrupt) // torn short of its framing
	errObjectMagic    = errors.New("store: bad object magic or version")
	errSectionHeader  = errors.New("store: truncated section header")
	errSectionName    = errors.New("store: truncated section name")
	errSectionPayload = errors.New("store: truncated section data")
	// An object's bytes end at its last section: one accepted with more
	// would decode like its canonical encoding yet compare unequal to it.
	errObjectTrailing = errors.New("store: bytes after the last section")
)

// openObject checks an object's length, CRC, magic and version, and
// returns its declared section count and the bytes that hold the
// sections.
func openObject(buf []byte) (int, []byte, error) {
	if len(buf) < 16 {
		return 0, nil, errObjectShort
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(body[0:4]) != objectMagic ||
		binary.LittleEndian.Uint32(body[4:8]) != objectVersion {
		return 0, nil, errObjectMagic
	}
	count := binary.LittleEndian.Uint32(body[8:12])
	rest := body[12:]
	// The count is the sender's word, and so is the CRC over it: refuse
	// one the remaining bytes cannot hold (12 header bytes per section)
	// before it sizes an allocation.
	if uint64(count) > uint64(len(rest))/12 {
		return 0, nil, fmt.Errorf("store: object declares %d sections in %d bytes", count, len(rest))
	}
	return int(count), rest, nil
}

// nextSection splits the first section off rest.
func nextSection(rest []byte) (name, data, tail []byte, err error) {
	if len(rest) < 4 {
		return nil, nil, nil, errSectionHeader
	}
	nameLen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) < nameLen+8 {
		return nil, nil, nil, errSectionName
	}
	name, rest = rest[:nameLen], rest[nameLen:]
	dataLen := binary.LittleEndian.Uint64(rest[:8])
	rest = rest[8:]
	if uint64(len(rest)) < dataLen {
		return nil, nil, nil, errSectionPayload
	}
	return name, rest[:dataLen:dataLen], rest[dataLen:], nil
}

// sectionCount reads the section count from the header of an object
// VerifySections accepted.
func sectionCount(blob []byte) int64 { return int64(binary.LittleEndian.Uint32(blob[8:12])) }

// DependencyResolver is optionally implemented by backends whose stored
// objects depend on other keys for reconstruction (the incremental
// decorator's delta chains). Dependencies returns every key that must
// remain in the store for Get(key) to keep succeeding, key itself
// included. Decorators that merely forward Get (Async, the reliability
// levels) forward this too; for self-contained backends every key
// depends only on itself.
type DependencyResolver interface {
	Dependencies(key string) ([]string, error)
}

// DependenciesOf reports the keys Get(key) depends on through b's
// decorator chain, falling back to {key} for self-contained backends.
// The retention policy of checkpoint.Context uses it to avoid deleting a
// keyframe (or an intermediate delta) still referenced by a retained
// delta chain.
func DependenciesOf(b Backend, key string) ([]string, error) {
	if r, ok := b.(DependencyResolver); ok {
		return r.Dependencies(key)
	}
	return []string{key}, nil
}

// BlobStore is optionally implemented by the layers that carry an object
// as the sealed blob EncodeSections produces without reading its sections
// (Memory, File, Remote, Replicated, Cached), so the checkpoint service
// and the layers above them move the bytes they were sent instead of
// decoding and re-encoding them.
//
// Blobs follow Backend's ownership rule: a replicated Put hands one blob
// to every replica, a cache keeps what it wrote, and Memory hands out its
// stored slice. PutBlob takes one VerifySections accepted, which the
// caller does not check again. Both keep the failpoints, op recorders and
// Stats of Put and Get.
type BlobStore interface {
	PutBlob(key string, blob []byte) error
	GetBlob(key string) ([]byte, error)
}

// PutBlob stores a verified blob under key through b, handing it over
// as-is to a BlobStore and as sections decoded in place to any other
// backend.
func PutBlob(b Backend, key string, blob []byte) error {
	if bs, ok := b.(BlobStore); ok {
		return bs.PutBlob(key, blob)
	}
	sections, err := DecodeSections(blob)
	if err != nil {
		return err
	}
	return b.Put(key, sections)
}

// GetBlob reads key's verified blob through b: stored bytes from a
// BlobStore, or the re-encoded sections of any other backend.
func GetBlob(b Backend, key string) ([]byte, error) {
	if bs, ok := b.(BlobStore); ok {
		return bs.GetBlob(key)
	}
	sections, err := b.Get(key)
	if err != nil {
		return nil, err
	}
	return EncodeSections(sections), nil
}

// getSections and getBlob are a blob backend's instrumented Get and
// GetBlob over fetch, which returns the stored bytes unverified; Get
// decodes them in place.
func getSections(op *obs.Op, key string, fetch func(string) ([]byte, error)) ([]Section, error) {
	start := op.Start()
	blob, err := fetch(key)
	var sections []Section
	if err == nil {
		sections, err = DecodeSections(blob)
	}
	op.Done(start, int64(len(blob)), errClass(err))
	return sections, err
}

func getBlob(op *obs.Op, key string, fetch func(string) ([]byte, error)) ([]byte, error) {
	start := op.Start()
	blob, err := fetch(key)
	if err == nil {
		_, err = VerifySections(blob)
	}
	op.Done(start, int64(len(blob)), errClass(err))
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// sectionsOf is Get for a layer whose logic works on blobs: the verified
// blob its GetBlob returned, decoded once in place.
func sectionsOf(blob []byte, err error) ([]Section, error) {
	if err != nil {
		return nil, err
	}
	return DecodeSections(blob)
}

// NamespaceForDir derives a remote-service namespace from a scratch
// directory path, so code that points each logical store at its own
// directory (the validation harness's per-scenario dirs, the
// many-clients scenario's per-client dirs) gets disjoint key spaces on a
// shared service without knowing about namespaces. The result is the
// sanitized path tail plus a hash of the full path, and is stable for a
// given path.
func NamespaceForDir(dir string) string {
	if dir == "" {
		return "default"
	}
	sum := crc32.ChecksumIEEE([]byte(dir))
	tail := dir
	if len(tail) > 40 {
		tail = tail[len(tail)-40:]
	}
	buf := make([]byte, 0, len(tail)+9)
	for i := 0; i < len(tail); i++ {
		c := tail[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			buf = append(buf, c)
		default:
			buf = append(buf, '-')
		}
	}
	return fmt.Sprintf("%s-%08x", buf, sum)
}
