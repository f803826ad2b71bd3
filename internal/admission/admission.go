// Package admission is the unified multi-tenant admission-control layer
// for every shedding path in the repo. One Controller owns the decisions
// the server's bound middleware and the analysis service's quotas used to
// make separately: a global in-flight bound, per-tenant (namespace)
// concurrency slots and session leases, per-tenant token-bucket rate
// limits, bounded per-tenant wait queues drained in weighted
// priority-class order (restart-path reads first, scrub traffic last),
// and a computed Retry-After derived from the observed queue depth and
// drain rate.
//
// The package is dependency-free apart from the repo's faultinject and
// obs substrates, and follows their nil-safety discipline: a nil
// *Controller admits everything for free, and an unconfigured Controller
// (only MaxInFlight set) adds zero allocations to the accept path — one
// mutex acquire, two integer compares, one atomic gauge increment.
//
// Callers translate a returned *Shed into their wire shape (the server's
// 503, analysis's typed 429 envelope); the Shed carries the tenant, the
// reason, the bound that was hit, and the Retry-After the caller should
// put on the wire. When no wait queue is configured the Retry-After is a
// fixed one second — the legacy contract every retrying client already
// understands; with a queue it is ceil((queued+1)/drainRate) seconds,
// clamped to [1s, 30s], where drainRate is an EWMA of observed slot
// releases.
package admission

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// SiteRequest is the failpoint evaluated after a slot is granted and
// while it is held, mirroring the analysis.session.chunk slot-holder
// idiom: a delay action occupies real admission capacity for its
// duration (so co-tenant sheds under chaos schedules are deterministic),
// and an error action releases the slot and surfaces the injected error
// to the caller as-is — it is injected unavailability, not a shed, and
// is not counted in the shed metrics.
const SiteRequest = "admission.request"

// Request headers carrying a caller's identity and priority class
// end-to-end. store.Remote and analysis.Client set both; the server's
// bound middleware reads them, falling back to the URL namespace and the
// HTTP method when absent (old clients keep working).
const (
	TenantHeader   = "X-Autocheck-Tenant"
	PriorityHeader = "X-Autocheck-Priority"
)

// Priority is a request's admission class. Lower values drain first.
type Priority int

// Priority classes, in drain order.
const (
	// Restart is the restart path: Get/List of checkpoint objects a
	// recovering process blocks on.
	Restart Priority = iota
	// Interactive is foreground work: checkpoint Puts, one-shot
	// analyses, session control requests.
	Interactive
	// Ingest is background streaming: analysis session chunks.
	Ingest
	// Scrub is maintenance traffic: replica scrub reads and repair
	// writes, always first to yield.
	Scrub

	// NumPriorities bounds the class space.
	NumPriorities = 4
)

var priorityNames = [NumPriorities]string{"restart", "interactive", "ingest", "scrub"}

func (p Priority) String() string {
	if p >= 0 && int(p) < NumPriorities {
		return priorityNames[p]
	}
	return "interactive"
}

// ParsePriority parses a class name as carried in PriorityHeader. The
// zero-value fallback for unknown names is Interactive, reported with
// ok=false.
func ParsePriority(s string) (Priority, bool) {
	for i, n := range priorityNames {
		if s == n {
			return Priority(i), true
		}
	}
	return Interactive, false
}

// Reason classifies a shed for metrics and wire messages.
type Reason string

// Shed reasons; each gets its own <prefix>.shed.<reason> counter.
const (
	ReasonInflight    Reason = "inflight"     // global bound hit, queue full (or absent)
	ReasonTenantQuota Reason = "tenant_quota" // per-tenant slot or session bound hit
	ReasonRate        Reason = "rate"         // per-tenant token bucket empty
	ReasonDrain       Reason = "drain"        // controller draining for shutdown
)

// reasonIndex maps a Reason to its pre-created counter slot.
func reasonIndex(r Reason) int {
	switch r {
	case ReasonInflight:
		return 0
	case ReasonTenantQuota:
		return 1
	case ReasonRate:
		return 2
	default:
		return 3
	}
}

var reasonByIndex = [4]Reason{ReasonInflight, ReasonTenantQuota, ReasonRate, ReasonDrain}

// Shed is the typed admission refusal. Callers translate it to their
// wire shape; RetryAfter is what belongs on the Retry-After header.
type Shed struct {
	Tenant     string
	Reason     Reason
	RetryAfter time.Duration
	Limit      int // the bound that was hit
	Count      int // the observed level when it was hit
}

func (s *Shed) Error() string {
	return fmt.Sprintf("admission: tenant %q shed (%s, %d/%d), retry after %ss",
		s.Tenant, s.Reason, s.Count, s.Limit, FormatRetryAfter(s.RetryAfter))
}

// AsShed unwraps an admission refusal from err.
func AsShed(err error) (*Shed, bool) {
	var sh *Shed
	if errors.As(err, &sh) {
		return sh, true
	}
	return nil, false
}

// FormatRetryAfter renders d as the integral second count the
// Retry-After header carries: ceiling, never below 1.
func FormatRetryAfter(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// drainWeights is the per-class drain weighting: per full scheduler
// cycle, up to 8 restart grants, then 4 interactive, 2 ingest, 1 scrub.
var drainWeights = [NumPriorities]int{8, 4, 2, 1}

// Config parameterizes a Controller. Every bound is optional: a zero
// value disables that bound (and its bookkeeping) entirely.
type Config struct {
	// MaxInFlight bounds concurrent admissions across all tenants.
	MaxInFlight int
	// TenantSlots bounds concurrent admissions per tenant.
	TenantSlots int
	// TenantSessions bounds live session leases per tenant
	// (AcquireSession / ReleaseSession).
	TenantSessions int
	// TenantRate is a per-tenant sustained admission rate (per second)
	// enforced by a token bucket of TenantBurst capacity
	// (<= 0: max(1, ceil(TenantRate))).
	TenantRate  float64
	TenantBurst int
	// QueueDepth bounds the per-tenant wait queue. Zero means requests
	// past MaxInFlight shed immediately with a fixed 1s Retry-After —
	// the legacy behavior. With a queue, waiters are drained in
	// weighted priority order and the Retry-After of an overflow shed
	// is computed from queue depth and drain rate.
	QueueDepth int

	// Prefix names the controller's instruments: <prefix>.shed,
	// <prefix>.shed.<reason>, <prefix>.shed.ns.<tenant>,
	// <prefix>.inflight. Empty means "admission".
	Prefix string

	Faults *faultinject.Registry
	Obs    *obs.Registry
	Now    func() time.Time // test seam; nil means time.Now
}

// tenantState is one tenant's book: concurrency, leases, tokens, and
// its per-priority wait queues. Guarded by Controller.mu.
type tenantState struct {
	name     string
	inUse    int     // granted + queued-with-reservation admissions
	live     int     // session leases
	tokens   float64 // token bucket level
	lastFill time.Time
	q        [NumPriorities][]*waiter
	qlen     int
	inRing   [NumPriorities]bool
	shedC    *obs.Counter // lazily bound <prefix>.shed.ns.<name>
}

// waiter is one queued Acquire. ready is closed exactly once — by a
// grant (shed nil) or by drain (shed set).
type waiter struct {
	ready chan struct{}
	shed  *Shed
}

// Controller is the admission authority. All methods are safe for
// concurrent use and on a nil receiver (which admits everything).
type Controller struct {
	cfg       Config
	perTenant bool // tenant bookkeeping needed on the Acquire path
	faults    *faultinject.Registry
	now       func() time.Time

	obsReg     *obs.Registry
	prefix     string
	shedC      *obs.Counter
	shedReason [4]*obs.Counter
	inflightG  *obs.Gauge

	mu          sync.Mutex
	draining    bool
	inUse       int
	queuedTotal int
	tenants     map[string]*tenantState
	rings       [NumPriorities][]*tenantState
	credit      [NumPriorities]int
	cur         int
	lastRelease time.Time
	drainRate   float64 // EWMA of slot releases per second
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{
		cfg:       cfg,
		perTenant: cfg.TenantSlots > 0 || cfg.TenantRate > 0 || cfg.QueueDepth > 0,
		faults:    cfg.Faults,
		now:       cfg.Now,
		obsReg:    cfg.Obs,
		prefix:    cfg.Prefix,
		tenants:   make(map[string]*tenantState),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.prefix == "" {
		c.prefix = "admission"
	}
	if c.cfg.TenantRate > 0 && c.cfg.TenantBurst <= 0 {
		c.cfg.TenantBurst = int(math.Ceil(c.cfg.TenantRate))
		if c.cfg.TenantBurst < 1 {
			c.cfg.TenantBurst = 1
		}
	}
	c.shedC = cfg.Obs.Counter(c.prefix + ".shed")
	for i, r := range reasonByIndex {
		c.shedReason[i] = cfg.Obs.Counter(c.prefix + ".shed." + string(r))
	}
	c.inflightG = cfg.Obs.Gauge(c.prefix + ".inflight")
	return c
}

// tenantLocked returns (creating on first sight) the tenant's state.
func (c *Controller) tenantLocked(name string) *tenantState {
	ts := c.tenants[name]
	if ts == nil {
		ts = &tenantState{name: name, tokens: float64(c.cfg.TenantBurst), lastFill: c.now()}
		c.tenants[name] = ts
	}
	return ts
}

// shedLocked builds the refusal and records it: the aggregate counter,
// the per-reason counter, and the tenant's own shed counter.
func (c *Controller) shedLocked(ts *tenantState, tenant string, reason Reason, limit, count int) *Shed {
	c.shedC.Inc()
	c.shedReason[reasonIndex(reason)].Inc()
	if c.obsReg != nil && tenant != "" {
		if ts != nil {
			if ts.shedC == nil {
				ts.shedC = c.obsReg.Counter(c.prefix + ".shed.ns." + tenant)
			}
			ts.shedC.Inc()
		} else {
			c.obsReg.Counter(c.prefix + ".shed.ns." + tenant).Inc()
		}
	}
	return &Shed{Tenant: tenant, Reason: reason, RetryAfter: time.Second, Limit: limit, Count: count}
}

// retryAfterLocked computes the hint for an overflow shed: with no
// queue, the fixed legacy second; with one, the time the current queue
// needs to drain at the observed rate, clamped to [1s, 30s].
func (c *Controller) retryAfterLocked() time.Duration {
	if c.cfg.QueueDepth <= 0 || c.drainRate <= 0 {
		return time.Second
	}
	secs := math.Ceil(float64(c.queuedTotal+1) / c.drainRate)
	if secs < 1 {
		secs = 1
	} else if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// Ticket is a granted admission. The zero Ticket (from a nil or
// unconfigured-path grant refusal) releases nothing.
type Ticket struct {
	c  *Controller
	ts *tenantState
}

// Release returns the slot and wakes a queued waiter if one can run.
func (t Ticket) Release() {
	if t.c == nil {
		return
	}
	t.c.release(t.ts)
}

// Acquire admits one request for tenant at the given priority, blocking
// in the tenant's bounded queue when one is configured and the global
// bound is saturated. It returns a Ticket (release it), a *Shed
// refusal, or an injected error from the admission.request failpoint.
func (c *Controller) Acquire(tenant string, pri Priority) (Ticket, error) {
	if c == nil {
		return Ticket{}, nil
	}
	if pri < 0 || pri >= NumPriorities {
		pri = Interactive
	}
	c.mu.Lock()
	if c.draining {
		sh := c.shedLocked(nil, tenant, ReasonDrain, 0, 0)
		c.mu.Unlock()
		return Ticket{}, sh
	}
	var ts *tenantState
	if c.perTenant {
		ts = c.tenantLocked(tenant)
		if c.cfg.TenantRate > 0 {
			now := c.now()
			if dt := now.Sub(ts.lastFill).Seconds(); dt > 0 {
				ts.tokens = math.Min(float64(c.cfg.TenantBurst), ts.tokens+dt*c.cfg.TenantRate)
				ts.lastFill = now
			}
			if ts.tokens < 1 {
				sh := c.shedLocked(ts, tenant, ReasonRate, c.cfg.TenantBurst, 0)
				wait := time.Duration((1 - ts.tokens) / c.cfg.TenantRate * float64(time.Second))
				if wait > sh.RetryAfter {
					sh.RetryAfter = wait
				}
				c.mu.Unlock()
				return Ticket{}, sh
			}
			ts.tokens--
		}
		if c.cfg.TenantSlots > 0 && ts.inUse >= c.cfg.TenantSlots {
			sh := c.shedLocked(ts, tenant, ReasonTenantQuota, c.cfg.TenantSlots, ts.inUse)
			c.mu.Unlock()
			return Ticket{}, sh
		}
	}
	if c.cfg.MaxInFlight > 0 && c.inUse >= c.cfg.MaxInFlight {
		if c.cfg.QueueDepth > 0 && ts.qlen < c.cfg.QueueDepth {
			// Reserve the tenant's slot before parking so the per-tenant
			// bound holds across queued grants; drain gives it back.
			ts.inUse++
			w := &waiter{ready: make(chan struct{})}
			ts.q[pri] = append(ts.q[pri], w)
			ts.qlen++
			c.queuedTotal++
			if !ts.inRing[pri] {
				c.rings[pri] = append(c.rings[pri], ts)
				ts.inRing[pri] = true
			}
			c.mu.Unlock()
			<-w.ready
			if w.shed != nil {
				return Ticket{}, w.shed
			}
			c.inflightG.Inc()
			if err := c.faults.Hit(SiteRequest); err != nil {
				c.release(ts)
				return Ticket{}, err
			}
			return Ticket{c: c, ts: ts}, nil
		}
		var sh *Shed
		if ts != nil && c.cfg.QueueDepth > 0 {
			sh = c.shedLocked(ts, tenant, ReasonInflight, c.cfg.QueueDepth, ts.qlen)
		} else {
			sh = c.shedLocked(ts, tenant, ReasonInflight, c.cfg.MaxInFlight, c.inUse)
		}
		sh.RetryAfter = c.retryAfterLocked()
		c.mu.Unlock()
		return Ticket{}, sh
	}
	c.inUse++
	if ts != nil {
		ts.inUse++
	}
	c.mu.Unlock()
	c.inflightG.Inc()
	// Slot-holder failpoint: a delay occupies the slot it was granted,
	// an error hands it back and surfaces as injected unavailability.
	if err := c.faults.Hit(SiteRequest); err != nil {
		c.release(ts)
		return Ticket{}, err
	}
	return Ticket{c: c, ts: ts}, nil
}

// release returns one slot and, when queues are configured, folds the
// release into the drain-rate EWMA and wakes the next waiter.
func (c *Controller) release(ts *tenantState) {
	c.inflightG.Dec()
	c.mu.Lock()
	c.inUse--
	if ts != nil {
		ts.inUse--
	}
	if c.cfg.QueueDepth > 0 {
		c.observeDrainLocked()
		c.grantLocked()
	}
	c.mu.Unlock()
}

// observeDrainLocked updates the EWMA (alpha 0.2) of releases/second
// that prices computed Retry-After hints. Only runs when queues are
// configured, keeping the unconfigured accept path clock-free.
func (c *Controller) observeDrainLocked() {
	now := c.now()
	if !c.lastRelease.IsZero() {
		if dt := now.Sub(c.lastRelease).Seconds(); dt > 0 {
			inst := 1.0 / dt
			if c.drainRate == 0 {
				c.drainRate = inst
			} else {
				c.drainRate = 0.8*c.drainRate + 0.2*inst
			}
		}
	}
	c.lastRelease = now
}

// grantLocked hands freed capacity to queued waiters in weighted
// priority order.
func (c *Controller) grantLocked() {
	for c.queuedTotal > 0 && (c.cfg.MaxInFlight <= 0 || c.inUse < c.cfg.MaxInFlight) {
		w, ok := c.dequeueLocked()
		if !ok {
			return
		}
		c.queuedTotal--
		c.inUse++ // the waiter's tenant slot was reserved at enqueue
		close(w.ready)
	}
}

// dequeueLocked is one deficit-round-robin step: spend the current
// class's credit on the front tenant of its ring (rotating the tenant
// to the back if it still has waiters in that class), else advance to
// the next class with a credit refill. Terminates within a bounded scan
// whenever any waiter is queued.
func (c *Controller) dequeueLocked() (*waiter, bool) {
	for spins := 0; spins <= 2*NumPriorities; spins++ {
		if c.credit[c.cur] > 0 && len(c.rings[c.cur]) > 0 {
			c.credit[c.cur]--
			ts := c.rings[c.cur][0]
			w := ts.q[c.cur][0]
			ts.q[c.cur] = ts.q[c.cur][1:]
			ts.qlen--
			if len(ts.q[c.cur]) == 0 {
				c.rings[c.cur] = c.rings[c.cur][1:]
				ts.inRing[c.cur] = false
			} else {
				c.rings[c.cur] = append(c.rings[c.cur][1:], ts)
			}
			return w, true
		}
		c.cur = (c.cur + 1) % NumPriorities
		c.credit[c.cur] = drainWeights[c.cur]
	}
	return nil, false
}

// AcquireSession takes one of the tenant's session leases. A recovered
// session (state already durable, being re-materialized) bypasses the
// bound but still holds a lease so eviction accounting stays exact.
func (c *Controller) AcquireSession(tenant string, recovered bool) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ts := c.tenantLocked(tenant)
	if !recovered && c.cfg.TenantSessions > 0 && ts.live >= c.cfg.TenantSessions {
		sh := c.shedLocked(ts, tenant, ReasonTenantQuota, c.cfg.TenantSessions, ts.live)
		c.mu.Unlock()
		return sh
	}
	ts.live++
	c.mu.Unlock()
	return nil
}

// ReleaseSession returns a session lease.
func (c *Controller) ReleaseSession(tenant string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ts := c.tenants[tenant]; ts != nil && ts.live > 0 {
		ts.live--
	}
	c.mu.Unlock()
}

// SetDraining flips drain mode. Entering it sheds every queued waiter
// with a drain refusal; subsequent acquires shed immediately until it
// is cleared.
func (c *Controller) SetDraining(on bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.draining = on
	if on && c.queuedTotal > 0 {
		for _, ts := range c.tenants {
			for pri := 0; pri < NumPriorities; pri++ {
				for _, w := range ts.q[pri] {
					w.shed = c.shedLocked(ts, ts.name, ReasonDrain, 0, 0)
					ts.inUse-- // give back the enqueue-time reservation
					close(w.ready)
				}
				ts.q[pri] = nil
				ts.inRing[pri] = false
			}
			ts.qlen = 0
		}
		for pri := 0; pri < NumPriorities; pri++ {
			c.rings[pri] = nil
		}
		c.queuedTotal = 0
	}
	c.mu.Unlock()
}
