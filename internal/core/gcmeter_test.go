package core_test

import (
	"runtime/metrics"
	"syscall"
	"testing"
	"time"
)

// gcMeter reads the collector's counters and the process's CPU time
// around each op of a benchmark: the counters through runtime/metrics,
// which, unlike runtime.ReadMemStats, does not stop the world, and the
// CPU time from getrusage(RUSAGE_SELF), as benchmark/run.sh does for its
// cpu_ms_per_op. report hands the benchmark, per op, the collections that
// finished, the heap bytes allocated, the share of ops that overlapped a
// collection — one that a cycle finished inside — and the CPU time, user
// and system, every goroutine of the process together; and the share of
// the Go CPU time the collector took. The runtime updates its CPU classes
// only when a cycle ends, so that share is the ops' together, not any
// one's.
type gcMeter struct {
	s      [5]metrics.Sample
	cycles uint64        // cycles finished inside ops
	bytes  uint64        // heap bytes allocated inside ops
	hit    int           // ops a cycle finished inside
	cpu    time.Duration // process CPU time inside ops
	gc     float64       // the collector's CPU seconds inside ops
	used   float64       // the Go CPU seconds, all but idle, inside ops
	ops    int
}

func newGCMeter() *gcMeter {
	m := &gcMeter{}
	for i, name := range []string{
		"/gc/cycles/total:gc-cycles",
		"/gc/heap/allocs:bytes",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/cpu/classes/idle:cpu-seconds",
	} {
		m.s[i].Name = name
	}
	return m
}

// op runs one op of the benchmark, metered.
func (m *gcMeter) op(fn func()) {
	metrics.Read(m.s[:])
	c0, by0 := m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
	gc0, used0 := m.s[2].Value.Float64(), m.s[3].Value.Float64()-m.s[4].Value.Float64()
	cpu0 := cpuTime()
	fn()
	m.cpu += cpuTime() - cpu0
	metrics.Read(m.s[:])
	c := m.s[0].Value.Uint64() - c0
	m.cycles += c
	m.bytes += m.s[1].Value.Uint64() - by0
	m.gc += m.s[2].Value.Float64() - gc0
	m.used += m.s[3].Value.Float64() - m.s[4].Value.Float64() - used0
	m.ops++
	if c > 0 {
		m.hit++
	}
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
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
	b.ReportMetric(float64(m.cpu.Microseconds())/1e3/n, "cpu-ms/op")
	if m.used > 0 {
		b.ReportMetric(m.gc/m.used, "gc-cpu-share")
	}
}
