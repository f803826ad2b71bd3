package core_test

import (
	"runtime/metrics"
	"testing"
)

// gcMeter reads the collector's counters around each op of a benchmark
// through runtime/metrics, which, unlike runtime.ReadMemStats, does not
// stop the world. report hands the benchmark, per op, the collections
// that finished, the heap bytes allocated, and the share of ops that
// overlapped a collection: one that a cycle finished inside.
type gcMeter struct {
	s      [2]metrics.Sample
	cycles uint64 // cycles finished inside ops
	bytes  uint64 // heap bytes allocated inside ops
	hit    int    // ops a cycle finished inside
	ops    int
}

func newGCMeter() *gcMeter {
	m := &gcMeter{}
	m.s[0].Name = "/gc/cycles/total:gc-cycles"
	m.s[1].Name = "/gc/heap/allocs:bytes"
	return m
}

// op runs one op of the benchmark, metered.
func (m *gcMeter) op(fn func()) {
	metrics.Read(m.s[:])
	c0, by0 := m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
	fn()
	metrics.Read(m.s[:])
	c := m.s[0].Value.Uint64() - c0
	m.cycles += c
	m.bytes += m.s[1].Value.Uint64() - by0
	m.ops++
	if c > 0 {
		m.hit++
	}
}

// report hands b the metered figures per op.
func (m *gcMeter) report(b *testing.B) {
	if m.ops == 0 {
		return
	}
	n := float64(m.ops)
	b.ReportMetric(float64(m.cycles)/n, "gc-cycles/op")
	b.ReportMetric(float64(m.hit)/n, "gc-overlap-share")
	b.ReportMetric(float64(m.bytes)/n, "heap-B/op")
}
