package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// Replicated is the cluster tier of the store stack: a Backend that fans
// every Put out to N replica backends (in production, store.Remote
// clients of N checkpoint services) and succeeds once a write quorum W
// of them acked. Get collects a read quorum R of definitive answers —
// a CRC-verified blob or a definite NotFound — picks the majority copy
// (valid data beats absence, ties break toward the lowest replica
// index), and read-repairs every responder that disagreed. ScrubOnce
// sweeps the key space doing the same comparison without waiting for a
// read to stumble over the divergence, and hedged reads bound tail
// latency when a replica is slow rather than dead: if no definitive
// answer arrived within a p95-derived delay, one extra replica is asked
// and the first good answer wins.
//
// The tier works on sealed blobs: a Put encodes the object once and
// every replica stores those bytes, answers are compared as the bytes
// the replicas returned, a repair ships the winner's bytes, and only
// Get decodes — the winner, once.
//
// With the default majority quorums (W = R = N/2+1), W+R > N guarantees
// every read quorum overlaps every acked write, so a Get after a
// successful Put always sees at least one replica with the object —
// the valid-beats-NotFound rule then returns it even when the other
// answers predate the write. Configuring W+R <= N trades that guarantee
// for latency and is allowed but stale reads become possible. Keys in
// the checkpoint protocol are written once (zero-padded sequence
// numbers never repeat), which is what makes the versionless majority
// comparison sound. Overwriting a key is not: copies carry no version,
// so until every replica has applied the overwrite (Flush is that
// barrier) a read quorum can pair the new copy with an old one, break
// the tie toward the lower replica index — possibly the old copy — and
// read-repair the others to it. No replica failure is needed for that.
//
// Each replica has its own ordered write queue (a one-goroutine
// replication log), so the operations one replica applies are exactly
// the submission sequence regardless of how slow or dead the other
// replicas are — and so the per-replica failpoint sites fire at
// deterministic hit counts, which is what lets a chaos schedule kill
// exactly one node at exactly one write. A crash action fired at a
// replica's site marks that replica down for the rest of the process:
// the node died, the client tier survives.
type Replicated struct {
	replicas []*replica
	w, r     int

	hedgeAfter time.Duration  // initial hedge delay; < 0 disables hedging
	firstLat   *obs.Histogram // first definitive answer's own service time per Get, feeds the hedge delay

	// faults is read by the queue goroutines while tests and the chaos
	// harness re-arm mid-stream, so the pointer swap must be atomic. Hit
	// is nil-safe, so an unarmed tier costs one load.
	faults atomic.Pointer[faultinject.Registry]

	ops           opSet
	cQuorumOK     *obs.Counter
	cQuorumFailed *obs.Counter
	cRepairs      *obs.Counter
	cHedgeFired   *obs.Counter
	cHedgeWon     *obs.Counter
	cScrubKeys    *obs.Counter

	closeOnce sync.Once
	closeErr  error

	mu    sync.Mutex
	stats Stats
}

// ReplicatedOptions parameterizes NewReplicated.
type ReplicatedOptions struct {
	// WriteQuorum is how many replica acks complete a Put; ReadQuorum is
	// how many definitive answers decide a Get. 0 selects a majority
	// (N/2+1). W+R > N is required for read-your-writes.
	WriteQuorum int
	ReadQuorum  int
	// HedgeAfter is the hedge delay used until enough reads have been
	// observed to derive one (after that the p95 of time-to-first-answer
	// is used). 0 selects DefaultHedgeAfter; < 0 disables hedging.
	HedgeAfter time.Duration
}

// DefaultHedgeAfter is the hedge delay before the tier has observed
// enough reads to derive one from its own latency distribution.
const DefaultHedgeAfter = 20 * time.Millisecond

// hedgeMinSamples is how many Gets must complete before the hedge delay
// switches from the configured value to the observed p95.
const hedgeMinSamples = 16

// replicaQueueDepth bounds each replica's write queue. A dead replica
// fails its queued operations fast (FailFastDial), so the queue drains;
// a merely slow replica exerts backpressure once the buffer fills.
const replicaQueueDepth = 64

// replica is one node of the cluster: its backend, its ordered write
// queue, and whether an injected crash has "killed" it.
type replica struct {
	idx     int
	backend Backend
	queue   chan *repOp
	done    chan struct{} // closed when the queue goroutine exits
	down    atomic.Bool
}

type opKind int

const (
	opPut opKind = iota
	opDelete
	opFlush
	// opRepair is a Put that skips the replica's failpoint site: repairs
	// happen at timing-dependent moments (whenever a read catches a
	// divergence), and letting them advance the put site's hit counter
	// would make chaos schedules unreplayable.
	opRepair
)

// repOp is one entry of a replica's write queue; every replica it is
// queued on reads the same blob. onDone runs on the queue goroutine;
// keep it light.
type repOp struct {
	kind   opKind
	key    string
	blob   []byte
	onDone func(idx int, err error)
}

// NewReplicated builds the cluster tier over the given replica backends
// (replica index = slice index, the identity the per-replica failpoint
// sites and doctor output use). It takes ownership of the replicas:
// Close closes them.
func NewReplicated(replicas []Backend, opts ReplicatedOptions) (*Replicated, error) {
	n := len(replicas)
	if n == 0 {
		return nil, errors.New("store: replicated: need at least one replica")
	}
	w, r := opts.WriteQuorum, opts.ReadQuorum
	if w == 0 {
		w = n/2 + 1
	}
	if r == 0 {
		r = n/2 + 1
	}
	if w < 1 || w > n {
		return nil, fmt.Errorf("store: replicated: write quorum %d out of range [1,%d]", w, n)
	}
	if r < 1 || r > n {
		return nil, fmt.Errorf("store: replicated: read quorum %d out of range [1,%d]", r, n)
	}
	hedge := opts.HedgeAfter
	if hedge == 0 {
		hedge = DefaultHedgeAfter
	}
	s := &Replicated{
		w:          w,
		r:          r,
		hedgeAfter: hedge,
		firstLat:   new(obs.Histogram),
	}
	for i, b := range replicas {
		rep := &replica{
			idx:     i,
			backend: b,
			queue:   make(chan *repOp, replicaQueueDepth),
			done:    make(chan struct{}),
		}
		s.replicas = append(s.replicas, rep)
		go s.runQueue(rep)
	}
	return s, nil
}

// Quorums reports the effective write and read quorums.
func (s *Replicated) Quorums() (w, r int) { return s.w, s.r }

// SetFaults implements FaultInjectable. The sites are the tier's own
// client-side per-replica sites (SiteReplicaPut/Get/Delete and
// SiteReplicatedScrub); the inner replica backends are deliberately
// left unarmed — a remote client's retry loop would make hit ordering
// timing-dependent, and a chaos schedule must replay from its seed.
func (s *Replicated) SetFaults(reg *faultinject.Registry) { s.faults.Store(reg) }

// SetObs implements Observable. Telemetry is forwarded to the replica
// backends too (unlike faults): they are constructed inside Open and
// invisible to it, so this is their only arming point, and the remote
// clients' per-attempt instruments usefully aggregate across replicas.
func (s *Replicated) SetObs(reg *obs.Registry) {
	s.ops = newOpSet(reg, "store.replicated")
	s.cQuorumOK = reg.Counter("store.replicated.quorum.ok")
	s.cQuorumFailed = reg.Counter("store.replicated.quorum.failed")
	s.cRepairs = reg.Counter("store.replicated.repairs")
	s.cHedgeFired = reg.Counter("store.replicated.hedge.fired")
	s.cHedgeWon = reg.Counter("store.replicated.hedge.won")
	s.cScrubKeys = reg.Counter("store.replicated.scrub.keys")
	for _, rep := range s.replicas {
		InjectObs(rep.backend, reg)
	}
}

// runQueue is one replica's replication log: it applies queued
// operations strictly in submission order.
func (s *Replicated) runQueue(rep *replica) {
	defer close(rep.done)
	for op := range rep.queue {
		op.onDone(rep.idx, s.applyOp(rep, op))
	}
}

// applyOp applies one queued operation to a replica, converting an
// injected crash into "this node is dead from now on".
func (s *Replicated) applyOp(rep *replica, op *repOp) (err error) {
	if rep.down.Load() {
		return fmt.Errorf("store: replica %d: %w (node crashed)", rep.idx, ErrUnavailable)
	}
	defer func() {
		if v := recover(); v != nil {
			c, ok := faultinject.AsCrash(v)
			if !ok {
				panic(v)
			}
			rep.down.Store(true)
			err = fmt.Errorf("store: replica %d: %w (%v)", rep.idx, ErrUnavailable, c)
		}
	}()
	switch op.kind {
	case opPut:
		if ferr := s.faults.Load().Hit(SiteReplicaPut(rep.idx)); ferr != nil {
			return fmt.Errorf("store: replica %d: %w", rep.idx, ferr)
		}
		return PutBlob(rep.backend, op.key, op.blob)
	case opDelete:
		if ferr := s.faults.Load().Hit(SiteReplicaDelete(rep.idx)); ferr != nil {
			return fmt.Errorf("store: replica %d: %w", rep.idx, ferr)
		}
		return rep.backend.Delete(op.key)
	case opFlush:
		return rep.backend.Flush()
	case opRepair:
		if sp, ok := rep.backend.(scrubPrioritized); ok {
			return sp.PutScrub(op.key, op.blob)
		}
		return PutBlob(rep.backend, op.key, op.blob)
	}
	return fmt.Errorf("store: replicated: unknown op kind %d", op.kind)
}

// tally counts the answers to one fanned-out replica operation.
type tally struct {
	mu         sync.Mutex
	cond       sync.Cond
	left       int   // answers still to come
	ok, absent int   // successes and ErrNotFound answers
	firstErr   error // the first other failure
}

func (t *tally) add(idx int, err error) {
	t.mu.Lock()
	switch {
	case err == nil:
		t.ok++
	case errors.Is(err, ErrNotFound):
		t.absent++
	case t.firstErr == nil:
		t.firstErr = fmt.Errorf("replica %d: %w", idx, err)
	}
	t.left--
	t.mu.Unlock()
	t.cond.Broadcast()
}

// fanOut queues op on every replica in to and reports the tally. With
// need > 0 it returns as soon as need replicas succeeded or too many
// failed for need to stay reachable — the submitter blocks only until
// that decision, and straggler replicas keep applying the operation in
// the background (that is what makes W<N writes fast and what
// read-repair mops up after). With need = 0 it waits for every answer.
func (s *Replicated) fanOut(op *repOp, to []*replica, need int) (ok, absent int, firstErr error) {
	t := &tally{left: len(to)}
	t.cond.L = &t.mu
	op.onDone = t.add
	for _, rep := range to {
		rep.queue <- op
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.left > 0 && (need == 0 || t.ok < need && t.ok+t.left >= need) {
		t.cond.Wait()
	}
	return t.ok, t.absent, t.firstErr
}

// Put implements Backend: the object is encoded once, for every replica.
func (s *Replicated) Put(key string, sections []Section) error {
	return s.PutBlob(key, EncodeSections(sections))
}

// PutBlob implements BlobStore: every replica's queue carries blob
// itself, and the Put returns once W replicas acked it.
func (s *Replicated) PutBlob(key string, blob []byte) error {
	start := s.ops.put.Start()
	n, err := s.put(key, blob)
	s.ops.put.Done(start, n, errClass(err))
	return err
}

func (s *Replicated) put(key string, blob []byte) (int64, error) {
	acks, _, firstErr := s.fanOut(&repOp{kind: opPut, key: key, blob: blob}, s.replicas, s.w)
	if acks < s.w {
		s.cQuorumFailed.Inc()
		return 0, fmt.Errorf("store: replicated: write quorum %d/%d not reached: %w (first failure: %w)",
			acks, s.w, ErrUnavailable, firstErr)
	}
	s.cQuorumOK.Inc()
	s.mu.Lock()
	s.stats.Puts++
	s.stats.BytesWritten += int64(len(blob))
	s.stats.SectionsWritten += sectionCount(blob)
	s.mu.Unlock()
	return int64(len(blob)), nil
}

// readResult is one replica's answer to a Get or scrub probe.
type readResult struct {
	idx  int
	blob []byte // verified and read-only, nil unless err == nil
	err  error
}

// definitive reports whether the answer settles the key's state on that
// replica: a verified object or a definite absence. Corrupt, injected,
// and network errors are not definitive — another replica must answer.
func (r readResult) definitive() bool {
	return r.err == nil || errors.Is(r.err, ErrNotFound)
}

// readReplica performs one direct replica read (queues are a write-path
// concept), converting an injected crash into node death like the write
// path does. withSite=false is the scrubber's path: its probes fire the
// scrub site instead, so read-site hit counts stay schedule-exact.
func (s *Replicated) readReplica(rep *replica, key string, withSite bool) (_ []byte, err error) {
	if rep.down.Load() {
		return nil, fmt.Errorf("store: replica %d: %w (node crashed)", rep.idx, ErrUnavailable)
	}
	defer func() {
		if v := recover(); v != nil {
			c, ok := faultinject.AsCrash(v)
			if !ok {
				panic(v)
			}
			rep.down.Store(true)
			err = fmt.Errorf("store: replica %d: %w (%v)", rep.idx, ErrUnavailable, c)
		}
	}()
	if withSite {
		if ferr := s.faults.Load().Hit(SiteReplicaGet(rep.idx)); ferr != nil {
			return nil, fmt.Errorf("store: replica %d: %w", rep.idx, ferr)
		}
	} else if sp, ok := rep.backend.(scrubPrioritized); ok {
		// The scrubber's probes announce themselves as maintenance
		// traffic to a remote replica's admission controller.
		return sp.GetScrub(key)
	}
	return GetBlob(rep.backend, key)
}

// scrubPrioritized is implemented by backends that can tag maintenance
// traffic (scrub reads, repair writes) with the scrub admission class —
// store.Remote forwards the class to the service so background repair
// never displaces a tenant's foreground checkpoints.
type scrubPrioritized interface {
	PutScrub(key string, blob []byte) error
	GetScrub(key string) ([]byte, error)
}

// hedgeDelay picks how long Get waits for a first definitive answer
// before asking an extra replica: the observed p95 once the tier has
// seen enough reads, the configured delay until then.
func (s *Replicated) hedgeDelay() time.Duration {
	if snap := s.firstLat.Snapshot(); snap.Count >= hedgeMinSamples {
		d := time.Duration(snap.P95Ns)
		if d < 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		return d
	}
	return s.hedgeAfter
}

// Get implements Backend: the winning blob, decoded once in place.
func (s *Replicated) Get(key string) ([]Section, error) { return sectionsOf(s.GetBlob(key)) }

// GetBlob implements BlobStore: the winning replica's blob as it
// returned it.
func (s *Replicated) GetBlob(key string) ([]byte, error) {
	start := s.ops.get.Start()
	blob, err := s.get(key)
	s.ops.get.Done(start, int64(len(blob)), errClass(err))
	return blob, err
}

func (s *Replicated) get(key string) ([]byte, error) {
	n := len(s.replicas)
	results := make(chan readResult, n) // buffered: abandoned stragglers must not leak their goroutine
	started := make([]time.Time, n)
	launch := func(i int) {
		rep := s.replicas[i]
		started[i] = time.Now()
		go func() {
			blob, err := s.readReplica(rep, key, true)
			results <- readResult{idx: rep.idx, blob: blob, err: err}
		}()
	}

	// Replicas 0..R-1 are asked immediately — a fixed launch order keeps
	// the set of read sites a schedule can target deterministic. Further
	// replicas join on a non-definitive answer, or when the hedge timer
	// fires first.
	launched := s.r
	for i := 0; i < launched; i++ {
		launch(i)
	}
	var hedgeC <-chan time.Time
	if s.hedgeAfter >= 0 && launched < n {
		t := time.NewTimer(s.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	hedgeIdx := -1
	hedgeWon := false
	var answers []readResult
	var firstFailure error
	definitive := 0
	for outstanding := launched; outstanding > 0 && definitive < s.r; {
		select {
		case res := <-results:
			outstanding--
			answers = append(answers, res)
			if res.definitive() {
				if definitive == 0 {
					// Measured from the answering replica's own launch, not
					// the Get's start: a sample that included the hedge wait
					// would feed the wait back into the p95 and ratchet the
					// delay up until it matched the slowest replica.
					s.firstLat.ObserveSince(started[res.idx])
				}
				definitive++
				hedgeWon = hedgeWon || res.idx == hedgeIdx
				continue
			}
			if firstFailure == nil {
				firstFailure = res.err
			}
			if launched < n {
				launch(launched)
				launched++
				outstanding++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < n {
				hedgeIdx = launched
				launch(launched)
				launched++
				outstanding++
				s.cHedgeFired.Inc()
				s.mu.Lock()
				s.stats.HedgesFired++
				s.mu.Unlock()
			}
		}
	}
	if definitive < s.r {
		s.cQuorumFailed.Inc()
		return nil, fmt.Errorf("store: replicated: read quorum %d/%d not reached for %q: %w (first failure: %w)",
			definitive, s.r, key, ErrUnavailable, firstFailure)
	}
	if hedgeWon {
		s.cHedgeWon.Inc()
		s.mu.Lock()
		s.stats.HedgesWon++
		s.mu.Unlock()
	}
	winner, targets := s.settle(answers)
	if winner == nil {
		// Every definitive answer was NotFound; no repair to run from —
		// a straggling write will land via its own queue.
		return nil, ErrNotFound
	}
	s.repair(key, winner, targets)
	s.mu.Lock()
	s.stats.Gets++
	s.stats.BytesRead += int64(len(winner))
	s.mu.Unlock()
	return winner, nil
}

// settle decides a key from its replicas' answers: the winner is the
// valid blob returned by the most replicas, ties toward the lowest
// replica index, and the targets to repair toward it are every replica
// that answered NotFound, other bytes, or a corrupt object. Other
// failures (an unreachable replica) are left alone: repair fixes state,
// it does not resurrect nodes. winner is nil when no answer was valid.
func (s *Replicated) settle(answers []readResult) (winner []byte, targets []*replica) {
	type group struct {
		blob          []byte
		votes, minIdx int
	}
	var groups []group
	groupOf := make([]int, len(answers))
	for i, a := range answers {
		if a.err != nil {
			continue
		}
		g := 0
		for g < len(groups) && !bytes.Equal(groups[g].blob, a.blob) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, group{blob: a.blob, minIdx: a.idx})
		}
		groups[g].votes++
		groups[g].minIdx = min(groups[g].minIdx, a.idx)
		groupOf[i] = g
	}
	if len(groups) == 0 {
		return nil, nil
	}
	best := 0
	for g := range groups {
		if groups[g].votes > groups[best].votes ||
			groups[g].votes == groups[best].votes && groups[g].minIdx < groups[best].minIdx {
			best = g
		}
	}
	for i, a := range answers {
		if a.err == nil && groupOf[i] != best || errors.Is(a.err, ErrNotFound) || errors.Is(a.err, ErrCorrupt) {
			targets = append(targets, s.replicas[a.idx])
		}
	}
	return groups[best].blob, targets
}

// repair ships the winning blob to the given replicas, through their
// queues so repairs serialize with in-flight writes, and waits for them
// (a read returns only after its repairs landed — that is what the
// divergence tests assert on). Returns how many replicas were repaired.
func (s *Replicated) repair(key string, blob []byte, targets []*replica) int {
	if len(targets) == 0 {
		return 0
	}
	repaired, _, _ := s.fanOut(&repOp{kind: opRepair, key: key, blob: blob}, targets, 0)
	if repaired > 0 {
		s.cRepairs.Add(int64(repaired))
		s.mu.Lock()
		s.stats.Repairs += int64(repaired)
		s.mu.Unlock()
	}
	return repaired
}

// List implements Backend: the union of every reachable replica's keys,
// sorted. At least ReadQuorum replicas must answer — with W+R > N the
// union over any R replicas contains every acked write.
func (s *Replicated) List() ([]string, error) {
	start := s.ops.list.Start()
	keys, err := s.listUnion(s.r)
	s.ops.list.Done(start, 0, errClass(err))
	return keys, err
}

func (s *Replicated) listUnion(minAnswers int) ([]string, error) {
	type listResult struct {
		keys []string
		err  error
	}
	results := make(chan listResult, len(s.replicas))
	for _, rep := range s.replicas {
		rep := rep
		go func() {
			if rep.down.Load() {
				results <- listResult{err: fmt.Errorf("store: replica %d: %w (node crashed)", rep.idx, ErrUnavailable)}
				return
			}
			keys, err := rep.backend.List()
			results <- listResult{keys: keys, err: err}
		}()
	}
	seen := make(map[string]bool)
	answers := 0
	var firstErr error
	for range s.replicas {
		res := <-results
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		answers++
		for _, k := range res.keys {
			seen[k] = true
		}
	}
	if answers < minAnswers {
		return nil, fmt.Errorf("store: replicated: list quorum %d/%d not reached: %w (first failure: %w)",
			answers, minAnswers, ErrUnavailable, firstErr)
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Backend. Deletes ride the write queues (ordering
// against puts matters) and wait for every replica's answer: a quorum
// of the cluster must confirm the removal or the absence. When every
// answering replica reported the key absent, that is ErrNotFound, same
// as a single-node store.
func (s *Replicated) Delete(key string) error {
	start := s.ops.del.Start()
	err := s.del(key)
	s.ops.del.Done(start, 0, errClass(err))
	return err
}

func (s *Replicated) del(key string) error {
	deleted, absent, firstErr := s.fanOut(&repOp{kind: opDelete, key: key}, s.replicas, 0)
	if deleted+absent < s.w {
		return fmt.Errorf("store: replicated: delete quorum %d/%d not reached for %q: %w (first failure: %w)",
			deleted+absent, s.w, key, ErrUnavailable, firstErr)
	}
	if deleted == 0 {
		return ErrNotFound
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// ScrubOnce sweeps the whole key space once, synchronously: for every
// key any reachable replica holds, read every replica's copy and repair
// the ones that are missing, corrupt, or divergent toward the majority
// copy. The sweep visits keys in sorted order and fires
// SiteReplicatedScrub once per key, so a chaos schedule can kill the
// scrubber at an exact point; an injected crash propagates to the
// caller. Returns keys examined and replicas repaired.
func (s *Replicated) ScrubOnce() (scanned, repaired int, err error) {
	keys, err := s.listUnion(1)
	if err != nil {
		return 0, 0, fmt.Errorf("store: replicated: scrub: %w", err)
	}
	answers := make([]readResult, len(s.replicas))
	for _, key := range keys {
		if ferr := s.faults.Load().Hit(SiteReplicatedScrub); ferr != nil {
			return scanned, repaired, fmt.Errorf("store: replicated: scrub: %w", ferr)
		}
		scanned++
		s.cScrubKeys.Inc()
		for i, rep := range s.replicas {
			blob, rerr := s.readReplica(rep, key, false)
			answers[i] = readResult{idx: rep.idx, blob: blob, err: rerr}
		}
		if winner, targets := s.settle(answers); winner != nil {
			repaired += s.repair(key, winner, targets)
		}
		// No valid copy anywhere: nothing to repair from.
	}
	return scanned, repaired, nil
}

// Stats implements Backend, reporting the tier's logical accounting:
// one Put is one put and one object's bytes no matter how many replicas
// it fanned out to, so the numbers stay comparable with a single-node
// store's. Replication-specific activity shows up in Repairs,
// HedgesFired, and HedgesWon.
func (s *Replicated) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Flush implements Backend: a barrier through every replica's queue
// (all previously submitted writes applied) plus the replica's own
// Flush. A write quorum of replicas must settle for Flush to succeed.
func (s *Replicated) Flush() error {
	acks, _, firstErr := s.fanOut(&repOp{kind: opFlush}, s.replicas, 0)
	if acks < s.w {
		return fmt.Errorf("store: replicated: flush quorum %d/%d not reached: %w (first failure: %w)",
			acks, s.w, ErrUnavailable, firstErr)
	}
	return nil
}

// Close implements Backend: drain and stop every replica queue, close
// the replicas.
func (s *Replicated) Close() error {
	s.closeOnce.Do(func() {
		for _, rep := range s.replicas {
			close(rep.queue)
		}
		for _, rep := range s.replicas {
			<-rep.done
		}
		for _, rep := range s.replicas {
			if err := rep.backend.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
