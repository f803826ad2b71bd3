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
// index), and read-repairs every responder that disagreed. A background
// scrubber sweeps the key space on a cadence doing the same comparison
// without waiting for a read to stumble over the divergence, and hedged
// reads bound tail latency when a replica is slow rather than dead: if
// no definitive answer arrived within a p95-derived delay, one extra
// replica is asked and the first good answer wins.
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

	// faults is read by the queue and scrub goroutines while tests and
	// the chaos harness re-arm mid-stream, so the pointer swap must be
	// atomic. Hit is nil-safe, so an unarmed tier costs one load.
	faults atomic.Pointer[faultinject.Registry]

	obsReg        *obs.Registry
	ops           opSet
	cQuorumOK     *obs.Counter
	cQuorumFailed *obs.Counter
	cRepairs      *obs.Counter
	cHedgeFired   *obs.Counter
	cHedgeWon     *obs.Counter
	cScrubKeys    *obs.Counter

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup

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
	// ScrubEvery starts a background scrubber on this cadence; 0 leaves
	// scrubbing to explicit ScrubOnce calls.
	ScrubEvery time.Duration
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

// repOp is one entry of a replica's write queue. onDone runs on the
// queue goroutine; keep it light.
type repOp struct {
	kind     opKind
	key      string
	sections []Section
	onDone   func(idx int, err error)
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
	if opts.ScrubEvery > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubWG.Add(1)
		go s.scrubLoop(opts.ScrubEvery)
	}
	return s, nil
}

// Replicas reports the cluster size.
func (s *Replicated) Replicas() int { return len(s.replicas) }

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
	s.obsReg = reg
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
		return rep.backend.Put(op.key, op.sections)
	case opDelete:
		if ferr := s.faults.Load().Hit(SiteReplicaDelete(rep.idx)); ferr != nil {
			return fmt.Errorf("store: replica %d: %w", rep.idx, ferr)
		}
		return rep.backend.Delete(op.key)
	case opFlush:
		return rep.backend.Flush()
	case opRepair:
		if sp, ok := rep.backend.(scrubPrioritized); ok {
			return sp.PutScrub(op.key, op.sections)
		}
		return rep.backend.Put(op.key, op.sections)
	}
	return fmt.Errorf("store: replicated: unknown op kind %d", op.kind)
}

// quorumWaiter decides a Put: success at W acks, failure as soon as too
// many replicas failed for W acks to remain possible. The submitter
// blocks only until the decision; straggler replicas keep applying the
// write in the background (that is what makes W<N writes fast and what
// read-repair mops up after).
type quorumWaiter struct {
	mu          sync.Mutex
	need, total int
	acks, fails int
	firstErr    error
	decided     chan struct{}
	done        bool
}

func newQuorumWaiter(need, total int) *quorumWaiter {
	return &quorumWaiter{need: need, total: total, decided: make(chan struct{})}
}

func (w *quorumWaiter) onResult(idx int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.fails++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("replica %d: %w", idx, err)
		}
	} else {
		w.acks++
	}
	if w.done {
		return
	}
	if w.acks >= w.need || w.fails > w.total-w.need {
		w.done = true
		close(w.decided)
	}
}

func (w *quorumWaiter) result() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.acks >= w.need {
		return nil
	}
	return fmt.Errorf("store: replicated: write quorum %d/%d not reached: %w (first failure: %w)",
		w.acks, w.need, ErrUnavailable, w.firstErr)
}

// Put implements Backend.
func (s *Replicated) Put(key string, sections []Section) error {
	start := s.ops.put.Start()
	n, err := s.put(key, sections)
	s.ops.put.Done(start, n, errClass(err))
	return err
}

func (s *Replicated) put(key string, sections []Section) (int64, error) {
	staged := copySections(sections) // replicas only read it, one copy is shared
	w := newQuorumWaiter(s.w, len(s.replicas))
	op := &repOp{kind: opPut, key: key, sections: staged, onDone: w.onResult}
	for _, rep := range s.replicas {
		rep.queue <- op
	}
	<-w.decided
	if err := w.result(); err != nil {
		s.cQuorumFailed.Inc()
		return 0, err
	}
	s.cQuorumOK.Inc()
	size := EncodedSize(sections)
	s.mu.Lock()
	s.stats.Puts++
	s.stats.BytesWritten += size
	s.stats.SectionsWritten += int64(len(sections))
	s.mu.Unlock()
	return size, nil
}

// readResult is one replica's answer to a Get or scrub probe.
type readResult struct {
	idx      int
	sections []Section
	blob     []byte // canonical encoding, nil unless err == nil
	err      error
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
func (s *Replicated) readReplica(rep *replica, key string, withSite bool) (_ []Section, err error) {
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
	return rep.backend.Get(key)
}

// scrubPrioritized is implemented by backends that can tag maintenance
// traffic (scrub reads, repair writes) with the scrub admission class —
// store.Remote forwards the class to the service so background repair
// never displaces a tenant's foreground checkpoints.
type scrubPrioritized interface {
	PutScrub(key string, sections []Section) error
	GetScrub(key string) ([]Section, error)
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

// Get implements Backend.
func (s *Replicated) Get(key string) ([]Section, error) {
	start := s.ops.get.Start()
	sections, n, err := s.get(key)
	s.ops.get.Done(start, n, errClass(err))
	return sections, err
}

func (s *Replicated) get(key string) ([]Section, int64, error) {
	n := len(s.replicas)
	results := make(chan readResult, n) // buffered: abandoned stragglers must not leak their goroutine
	started := make([]time.Time, n)
	launch := func(i int) {
		rep := s.replicas[i]
		started[i] = time.Now()
		go func() {
			secs, err := s.readReplica(rep, key, true)
			res := readResult{idx: rep.idx, sections: secs, err: err}
			if err == nil {
				res.blob = EncodeSections(secs)
			}
			results <- res
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
	sawFirst := false
	hedgeIdx := -1
	var definitive, failures []readResult
	outstanding := launched
	for outstanding > 0 && len(definitive) < s.r {
		select {
		case res := <-results:
			outstanding--
			if res.definitive() {
				if !sawFirst {
					sawFirst = true
					// Measured from the answering replica's own launch, not
					// the Get's start: a sample that included the hedge wait
					// would feed the wait back into the p95 and ratchet the
					// delay up until it matched the slowest replica.
					s.firstLat.ObserveSince(started[res.idx])
				}
				definitive = append(definitive, res)
			} else {
				failures = append(failures, res)
				if launched < n {
					launch(launched)
					launched++
					outstanding++
				}
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
	if len(definitive) < s.r {
		s.cQuorumFailed.Inc()
		return nil, 0, fmt.Errorf("store: replicated: read quorum %d/%d not reached for %q: %w (first failure: %w)",
			len(definitive), s.r, key, ErrUnavailable, failures[0].err)
	}
	if hedgeIdx >= 0 {
		for _, res := range definitive {
			if res.idx == hedgeIdx {
				s.cHedgeWon.Inc()
				s.mu.Lock()
				s.stats.HedgesWon++
				s.mu.Unlock()
				break
			}
		}
	}

	winner, ok := pickWinner(definitive)
	if !ok {
		// Every definitive answer was NotFound; no repair to run from —
		// a straggling write will land via its own queue.
		return nil, 0, ErrNotFound
	}
	var targets []int
	for _, res := range definitive {
		if res.err != nil || !bytes.Equal(res.blob, winner.blob) {
			targets = append(targets, res.idx)
		}
	}
	for _, res := range failures {
		if errors.Is(res.err, ErrCorrupt) {
			targets = append(targets, res.idx)
		}
	}
	s.repair(key, winner.sections, targets)
	s.mu.Lock()
	s.stats.Gets++
	s.stats.BytesRead += int64(len(winner.blob))
	s.mu.Unlock()
	return winner.sections, int64(len(winner.blob)), nil
}

// pickWinner chooses the authoritative copy among definitive answers:
// the valid blob held by the most responders, ties toward the lowest
// replica index. ok is false when every answer was NotFound.
func pickWinner(definitive []readResult) (readResult, bool) {
	type group struct {
		res    readResult
		count  int
		minIdx int
	}
	var groups []*group
	for _, res := range definitive {
		if res.err != nil {
			continue
		}
		matched := false
		for _, g := range groups {
			if bytes.Equal(g.res.blob, res.blob) {
				g.count++
				if res.idx < g.minIdx {
					g.minIdx = res.idx
				}
				matched = true
				break
			}
		}
		if !matched {
			groups = append(groups, &group{res: res, count: 1, minIdx: res.idx})
		}
	}
	if len(groups) == 0 {
		return readResult{}, false
	}
	best := groups[0]
	for _, g := range groups[1:] {
		if g.count > best.count || (g.count == best.count && g.minIdx < best.minIdx) {
			best = g
		}
	}
	return best.res, true
}

// repair rewrites the winning copy onto the given replicas, through
// their queues so repairs serialize with in-flight writes, and waits for
// them (a read returns only after its repairs landed — that is what the
// divergence tests assert on). Returns how many replicas were repaired.
func (s *Replicated) repair(key string, sections []Section, targets []int) int {
	if len(targets) == 0 {
		return 0
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	repaired := 0
	staged := copySections(sections)
	wg.Add(len(targets))
	op := &repOp{kind: opRepair, key: key, sections: staged, onDone: func(idx int, err error) {
		if err == nil {
			mu.Lock()
			repaired++
			mu.Unlock()
		}
		wg.Done()
	}}
	for _, idx := range targets {
		s.replicas[idx].queue <- op
	}
	wg.Wait()
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
	var wg sync.WaitGroup
	var mu sync.Mutex
	deleted, notFound := 0, 0
	var firstErr error
	wg.Add(len(s.replicas))
	op := &repOp{kind: opDelete, key: key, onDone: func(idx int, err error) {
		mu.Lock()
		switch {
		case err == nil:
			deleted++
		case errors.Is(err, ErrNotFound):
			notFound++
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d: %w", idx, err)
			}
		}
		mu.Unlock()
		wg.Done()
	}}
	for _, rep := range s.replicas {
		rep.queue <- op
	}
	wg.Wait()
	if deleted+notFound < s.w {
		return fmt.Errorf("store: replicated: delete quorum %d/%d not reached for %q: %w (first failure: %w)",
			deleted+notFound, s.w, key, ErrUnavailable, firstErr)
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
// caller (the background loop recovers it as "the scrubber died").
// Returns keys examined and replicas repaired.
func (s *Replicated) ScrubOnce() (scanned, repaired int, err error) {
	keys, err := s.listUnion(1)
	if err != nil {
		return 0, 0, fmt.Errorf("store: replicated: scrub: %w", err)
	}
	for _, key := range keys {
		if ferr := s.faults.Load().Hit(SiteReplicatedScrub); ferr != nil {
			return scanned, repaired, fmt.Errorf("store: replicated: scrub: %w", ferr)
		}
		scanned++
		s.cScrubKeys.Inc()
		var definitive []readResult
		var targets []int
		for _, rep := range s.replicas {
			secs, gerr := s.readReplica(rep, key, false)
			res := readResult{idx: rep.idx, sections: secs, err: gerr}
			if gerr == nil {
				res.blob = EncodeSections(secs)
			}
			if res.definitive() {
				definitive = append(definitive, res)
			} else if errors.Is(gerr, ErrCorrupt) {
				targets = append(targets, rep.idx)
			}
			// Unreachable replicas are skipped: scrub repairs state, it
			// does not resurrect nodes.
		}
		winner, ok := pickWinner(definitive)
		if !ok {
			continue // key exists nowhere in valid form; nothing to repair from
		}
		for _, res := range definitive {
			if res.err != nil || !bytes.Equal(res.blob, winner.blob) {
				targets = append(targets, res.idx)
			}
		}
		repaired += s.repair(key, winner.sections, targets)
	}
	return scanned, repaired, nil
}

// scrubLoop is the background scrubber: ScrubOnce on a ticker until
// Close or an injected crash kills it.
func (s *Replicated) scrubLoop(every time.Duration) {
	defer s.scrubWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-t.C:
			if !s.scrubTick() {
				return
			}
		}
	}
}

func (s *Replicated) scrubTick() (alive bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := faultinject.AsCrash(v); ok {
				alive = false // the scrubber died; the store lives on
				return
			}
			panic(v)
		}
	}()
	s.ScrubOnce()
	return true
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
	var wg sync.WaitGroup
	var mu sync.Mutex
	acks := 0
	var firstErr error
	wg.Add(len(s.replicas))
	op := &repOp{kind: opFlush, onDone: func(idx int, err error) {
		mu.Lock()
		if err == nil {
			acks++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("replica %d: %w", idx, err)
		}
		mu.Unlock()
		wg.Done()
	}}
	for _, rep := range s.replicas {
		rep.queue <- op
	}
	wg.Wait()
	if acks < s.w {
		return fmt.Errorf("store: replicated: flush quorum %d/%d not reached: %w (first failure: %w)",
			acks, s.w, ErrUnavailable, firstErr)
	}
	return nil
}

// Close implements Backend: stop the scrubber, drain and stop every
// replica queue, close the replicas.
func (s *Replicated) Close() error {
	s.closeOnce.Do(func() {
		if s.scrubStop != nil {
			close(s.scrubStop)
			s.scrubWG.Wait()
		}
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
