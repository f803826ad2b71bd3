package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"time"
)

// config is one run. The defaults are the published benchmark; the
// tests shrink scale, ring and rounds so that a run takes a second and
// its counts repeat exactly.
type config struct {
	workload string
	seed     int64
	seconds  float64 // how long the measured phase runs
	trace    bool    // traced run: per-layer metrics instead of end-to-end
	scale    int     // internal/progs scale of the analysis inputs
	ring     int     // keys per tenant on ckpt-service and in the store ladder
	setups   int     // set-up is repeated this often and setup_s is the median
	rounds   int     // > 0: run exactly this many rounds instead of for `seconds`
}

func defaultConfig() config {
	return config{seed: 1, seconds: 12, scale: 24, ring: 64, setups: 3}
}

// env is what a workload sees of a run: its seeded randomness, a scratch
// directory inside the checkout, where to record samples and, on a
// traced run, spans.
type env struct {
	cfg config
	rng *rand.Rand
	dir string
	s   *samples
	rec *recorder // nil unless tracing

	// The reference pass and its timings over the run; see reference.go.
	ref     *reference
	refMu   sync.Mutex
	refLast time.Time
	refMS   []float64
}

// reseed restarts the seeded stream, so that every repeat of set-up
// generates the same inputs.
func (e *env) reseed() { e.rng = rand.New(rand.NewSource(e.cfg.seed)) }

// more reports whether round r should start: a fixed count when the
// config says so, otherwise until the deadline, and always once.
func (e *env) more(r int, deadline time.Time) bool {
	if e.cfg.rounds > 0 {
		return r < e.cfg.rounds
	}
	return r == 0 || time.Now().Before(deadline)
}

// samples collects the measured phase: per-class op latencies, the wall
// and CPU seconds of each round, op and failure counts and, on the
// analysis workloads, records analysed.
type samples struct {
	mu        sync.Mutex
	ms        map[string][]float64
	wall, cpu []float64
	attempted int
	failed    int
	records   int64
}

func newSamples() *samples { return &samples{ms: map[string][]float64{}} }

func (s *samples) add(class string, d time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if !ok {
		s.failed++
		return
	}
	s.ms[class] = append(s.ms[class], float64(d)/1e6)
}

func (s *samples) addRecords(n int) {
	s.mu.Lock()
	s.records += int64(n)
	s.mu.Unlock()
}

// call is the handle an op uses to time its calls into the layers.
type call struct {
	rec  *recorder
	span int
}

// do runs fn as a child span of the op; untraced it only runs fn.
func (c call) do(name string, fn func()) {
	if c.rec == nil {
		fn()
		return
	}
	id := c.rec.begin(name, c.span)
	fn()
	c.rec.end(id)
}

// op times one operation of the given class and records whether fn
// found its output correct. Anything fn does outside c.do (checking the
// output against the expectation) is the benchmark's own time.
func (e *env) op(class string, fn func(c call) (time.Duration, bool)) {
	e.calibrate()
	c := call{rec: e.rec, span: -1}
	if e.rec != nil {
		c.span = e.rec.begin("op."+class, -1)
		defer e.rec.end(c.span)
	}
	d, ok := fn(c)
	e.s.add(class, d, ok)
}

// span is one timed call: which function, inside which other span, when.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// time records fn as a root span and returns how long it took.
func (r *recorder) time(name string, fn func()) time.Duration {
	id := r.begin(name, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// ns returns the durations of every span with the given name.
func (r *recorder) ns(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
