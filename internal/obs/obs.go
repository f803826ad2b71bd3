// Package obs is the telemetry substrate for the repo: atomic counters
// and gauges, and fixed-bucket latency histograms with quantile
// snapshots. It is dependency-free and allocation-conscious by design —
// every method on every type is safe on a nil receiver and does nothing,
// exactly like faultinject, so a layer whose telemetry is disabled pays
// one nil check per operation and zero allocations. Enabling observation
// is a matter of threading a *Registry through a Config; nothing else
// changes.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically named (not enforced) atomic int64. A nil
// Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic level (in-flight requests, queue
// depth). A nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc raises the level by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a process-local namespace of named instruments. Instruments
// are created on first use and live for the registry's lifetime, so hot
// paths resolve them once at wiring time and then touch only atomics. All
// methods are safe on a nil *Registry: lookups return nil instruments,
// whose methods are no-ops — the disabled-telemetry configuration is a
// nil Registry threaded everywhere.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = new(Counter)
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = new(Gauge)
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h = new(Histogram)
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every instrument, shaped for JSON
// (the server's /v1/metrics payload) and for programmatic reads (doctor,
// bench). Maps are fully materialized copies; mutating them is safe.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument. Concurrent recording is fine: each
// instrument is read atomically, so the snapshot is per-instrument
// consistent (no torn histogram) though not globally instantaneous.
// Returns a zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Op bundles the instruments of one named operation — a latency
// histogram, a byte counter, and lazily-created error-class counters —
// so an instrumented call site is two calls: start := op.Start() before
// the work, op.Done(start, n, class) after. A nil *Op (from a nil
// registry) makes both no-ops; Start on a nil Op does not even read the
// clock.
type Op struct {
	reg   *Registry
	name  string
	lat   *Histogram
	bytes *Counter
}

// Op returns the recorder for one named operation. The latency histogram
// is registered as "<name>.ns" and the byte counter as "<name>.bytes";
// errors land in counters named "<name>.err.<class>". Returns nil on a
// nil registry.
func (r *Registry) Op(name string) *Op {
	if r == nil {
		return nil
	}
	return &Op{
		reg:   r,
		name:  name,
		lat:   r.Histogram(name + ".ns"),
		bytes: r.Counter(name + ".bytes"),
	}
}

// Start reads the clock for a subsequent Done. On a nil Op it returns the
// zero time without touching the clock.
func (o *Op) Start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// Done records one completed operation: latency since start, n payload
// bytes (skipped when <= 0), and an error-class counter bump when class
// is non-empty.
func (o *Op) Done(start time.Time, n int64, class string) {
	if o == nil {
		return
	}
	o.lat.Observe(time.Since(start))
	if n > 0 {
		o.bytes.Add(n)
	}
	if class != "" {
		o.reg.Counter(o.name + ".err." + class).Inc()
	}
}
