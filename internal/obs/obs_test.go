package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter did not return the same instrument on re-lookup")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Millisecond)
	r.Op("x").Done(r.Op("x").Start(), 10, "io")
	s := r.Snapshot()
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1023, 9}, {1024, 10}, {1 << 39, 39}, {1 << 45, 39},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	if BucketLower(10) != 1024 {
		t.Fatalf("BucketLower(10) = %d, want 1024", BucketLower(10))
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations at ~1us, 10 at ~1ms, 1 at ~1s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	s := h.Snapshot()
	if s.Count != 111 {
		t.Fatalf("count = %d, want 111", s.Count)
	}
	if s.MaxNs != int64(time.Second) {
		t.Fatalf("max = %d, want 1s", s.MaxNs)
	}
	// Buckets are power-of-two wide, so each quantile must land within 2x
	// of the true value.
	within2x := func(got, want int64) bool { return got >= want/2 && got <= 2*want }
	if !within2x(s.P50Ns, int64(time.Microsecond)) {
		t.Errorf("p50 = %dns, want ~1us", s.P50Ns)
	}
	if !within2x(s.P95Ns, int64(time.Millisecond)) {
		t.Errorf("p95 = %dns, want ~1ms (rank 105 of 111 falls past the 100 1us obs)", s.P95Ns)
	}
	if !within2x(s.P99Ns, int64(time.Millisecond)) {
		t.Errorf("p99 = %dns, want ~1ms", s.P99Ns)
	}
	if s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d", s.P50Ns, s.P95Ns, s.P99Ns)
	}
	if got := s.SumNs / s.Count; got <= 0 {
		t.Errorf("mean = %d, want > 0", got)
	}
}

// TestSnapshotDuringRecord hammers one histogram from writers while a
// reader snapshots continuously: every snapshot must be internally
// consistent (count equals the bucket mass its quantiles were computed
// from, quantiles monotone, count monotone across snapshots).
func TestSnapshotDuringRecord(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration((seed+int64(i))%5000) * time.Microsecond)
			}
		}(int64(w) * 13)
	}
	var lastCount int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s := h.Snapshot()
			if s.Count < lastCount {
				t.Errorf("count went backwards: %d -> %d", lastCount, s.Count)
				return
			}
			lastCount = s.Count
			if s.Count > 0 && (s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns) {
				t.Errorf("quantiles not monotone under load: %+v", s)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perWriter)
	}
}

// TestRegistryConcurrency exercises creation and recording from many
// goroutines (meaningful under -race).
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			names := []string{"a", "b", "c"}
			for i := 0; i < 2000; i++ {
				n := names[i%len(names)]
				r.Counter(n).Inc()
				r.Gauge(n).Add(1)
				r.Histogram(n).Observe(time.Duration(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	for _, n := range []string{"a", "b", "c"} {
		if s.Histograms[n].Count == 0 {
			t.Fatalf("histogram %q empty after concurrent load", n)
		}
	}
	want := int64(8 * 2000 / 3)
	total := s.Counters["a"] + s.Counters["b"] + s.Counters["c"]
	if total != 8*2000 {
		t.Fatalf("counter mass = %d, want %d (per-name ~%d)", total, 8*2000, want)
	}
}

// TestDisabledTelemetryZeroAllocs pins the no-op path at 0 allocs/op:
// a nil registry's instruments and ops must be free on hot paths.
func TestDisabledTelemetryZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	op := r.Op("op")
	if allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Inc()
		h.Observe(time.Millisecond)
		start := op.Start()
		op.Done(start, 100, "")
	}); allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledRecordingZeroAllocs pins the *enabled* steady-state too:
// once instruments are resolved, recording is pure atomics.
func TestEnabledRecordingZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h")
	op := r.Op("op")
	if allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(time.Millisecond)
		op.Done(op.Start(), 64, "")
	}); allocs != 0 {
		t.Fatalf("enabled steady-state recording allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestOpErrorClasses(t *testing.T) {
	r := New()
	op := r.Op("store.x.get")
	op.Done(op.Start(), 0, "not_found")
	op.Done(op.Start(), 128, "")
	s := r.Snapshot()
	if got := s.Counters["store.x.get.err.not_found"]; got != 1 {
		t.Fatalf("err counter = %d, want 1", got)
	}
	if got := s.Counters["store.x.get.bytes"]; got != 128 {
		t.Fatalf("bytes = %d, want 128", got)
	}
	if got := s.Histograms["store.x.get.ns"].Count; got != 2 {
		t.Fatalf("latency count = %d, want 2", got)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := New()
	r.Counter("server.shed").Add(3)
	r.Gauge("server.inflight").Set(2)
	r.Histogram("server.put.ns").Observe(time.Millisecond)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["server.shed"] != 3 || back.Gauges["server.inflight"] != 2 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.Histograms["server.put.ns"].Count != 1 {
		t.Fatalf("histogram lost in round-trip: %+v", back)
	}
	if len(back.Counters) != 1 || len(back.Gauges) != 1 || len(back.Histograms) != 1 {
		t.Fatalf("round-trip instrument counts: %+v", back)
	}
}
