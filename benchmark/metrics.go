package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// metricDef declares one metric: BENCHMARK.json is printed from these
// tables (-describe) and bench_test.go holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every metric; an op class is a port on the analysis workloads and an
// operation type (checkpoint/restart, put/get) on the storage workloads.
// Every timing is the run's quiet value scaled by its reference pass
// (see quiet and reference.go). The bounds are the widest allowed: ten
// runs of one commit still spread by 3 to 11% of their median on the
// sandbox's two shared cores.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_geomean", "ms", "lower", 0.25},
	{"op_ms_max", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced run's ladder: each metric times calls into one
// package's public functions on pre-generated inputs.
var perLayer = []metricDef{
	{Name: "compile.ms", Unit: "ms", Better: "lower"},
	{Name: "interp.run.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "interp.trace.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.encode_text.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.encode_binary.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_text.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_binary.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.sweep_binary.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.sweep_text.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_text_parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "trace.binary_text_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.offline.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "core.engine.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "core.ddg.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "core.pre.share", Unit: "ratio", Better: "lower"},
	{Name: "core.dep.share", Unit: "ratio", Better: "lower"},
	{Name: "core.identify.share", Unit: "ratio", Better: "lower"},
	{Name: "core.many.speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.offline.alloc_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "core.stream.alloc_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "analysis.oneshot.ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.chunk.us", Unit: "us", Better: "lower"},
	{Name: "analysis.finish.ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.http.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "checkpoint.encode.ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.restore.ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.l2.put.us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.stored_bytes_per_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.encode_sections.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.decode_sections.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.memory.put.us", Unit: "us", Better: "lower"},
	{Name: "store.memory.get.us", Unit: "us", Better: "lower"},
	{Name: "store.file.put.us", Unit: "us", Better: "lower"},
	{Name: "store.file.get.us", Unit: "us", Better: "lower"},
	{Name: "store.file_sync.put.us", Unit: "us", Better: "lower"},
	{Name: "store.sharded.put.us", Unit: "us", Better: "lower"},
	{Name: "store.sharded.get.us", Unit: "us", Better: "lower"},
	{Name: "store.incremental.put.us", Unit: "us", Better: "lower"},
	{Name: "store.incremental.get.us", Unit: "us", Better: "lower"},
	{Name: "store.incremental.bytes_ratio", Unit: "ratio", Better: "lower"},
	{Name: "store.async.put.us", Unit: "us", Better: "lower"},
	{Name: "store.async.flush.us", Unit: "us", Better: "lower"},
	{Name: "store.cached.get_hit.us", Unit: "us", Better: "lower"},
	{Name: "store.cached.hit_rate_small", Unit: "ratio", Better: "higher"},
	{Name: "store.cached.hit_rate_fit", Unit: "ratio", Better: "higher"},
	{Name: "store.remote.put.us", Unit: "us", Better: "lower"},
	{Name: "store.remote.get.us", Unit: "us", Better: "lower"},
	{Name: "store.replicated.put_w2.us", Unit: "us", Better: "lower"},
	{Name: "store.replicated.get_r2.us", Unit: "us", Better: "lower"},
	{Name: "server.handler.put.us", Unit: "us", Better: "lower"},
	{Name: "server.handler.get.us", Unit: "us", Better: "lower"},
	{Name: "server.wire.put.us", Unit: "us", Better: "lower"},
	{Name: "admission.acquire.ns", Unit: "ns", Better: "lower"},
	{Name: "admission.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.enabled.put_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "ladder.offline-text.residual_pct", Unit: "%", Better: "lower"},
	{Name: "ladder.ckpt-local.residual_pct", Unit: "%", Better: "lower"},
	{Name: "ladder.ckpt-service.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace_run.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_run.tail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "reference.ms", Unit: "ms", Better: "lower"},
}

// metricValue and result are the last line a run prints.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics of a result from measured values, one per
// declared metric: a value the run did not produce is a bug, reported
// by name rather than printed as 0.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
