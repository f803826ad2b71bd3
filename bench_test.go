// Benchmarks regenerating the paper's evaluation artifacts. One bench per
// table/figure (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable2_*              detection pipeline per benchmark (Table II)
//	BenchmarkTable3_*              phase costs, serial vs parallel (Table III)
//	BenchmarkTable4_Storage        checkpoint vs full-snapshot bytes (Table IV)
//	BenchmarkTable4_StorageBackends  storage-engine sweep: full snapshot vs
//	                               critical set vs critical set + incremental
//	BenchmarkValidation_*          fail-stop + restart protocol (§VI-B)
//	BenchmarkFig5_DDGContraction   complete-DDG build + Algorithm 1 (Fig. 5)
//	BenchmarkParallelTraceRead/*   §V-A worker sweep
//	BenchmarkRemoteStore/*         networked checkpoint service: concurrent
//	                               clients + cached vs uncached restarts
//	BenchmarkAblation_*            design-choice ablations from DESIGN.md
//
// Sizes are reported via b.ReportMetric, so `go test -bench=. -benchmem`
// prints the same series the paper's tables report (shape, not absolute
// numbers — the substrate is a simulator, not the authors' testbed).
package autocheck

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/harness"
	"autocheck/internal/interp"
	"autocheck/internal/progs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/trace"
	"autocheck/internal/validate"
)

// prepared caches compiled+traced benchmarks across bench runs.
var prepared = map[string]*harness.Prepared{}

func prep(b *testing.B, name string) *harness.Prepared {
	b.Helper()
	if p, ok := prepared[name]; ok {
		return p
	}
	bench := progs.Get(name)
	if bench == nil {
		b.Fatalf("unknown benchmark %s", name)
	}
	p, err := harness.Prepare(bench, 0)
	if err != nil {
		b.Fatal(err)
	}
	prepared[name] = p
	return p
}

// BenchmarkTable2 runs the full AutoCheck pipeline (parse + three modules)
// once per iteration for each Table II benchmark.
func BenchmarkTable2(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			p := prep(b, bench.Name)
			b.SetBytes(int64(len(p.Data)))
			var critical int
			for i := 0; i < b.N; i++ {
				res, err := p.Analyze()
				if err != nil {
					b.Fatal(err)
				}
				critical = len(res.Critical)
			}
			b.ReportMetric(float64(critical), "critical-vars")
			b.ReportMetric(float64(len(p.Records)), "trace-records")
		})
	}
}

// BenchmarkTable3 isolates the three phases of Table III on the largest
// port (HACC) and compares serial against parallel pre-processing.
func BenchmarkTable3(b *testing.B) {
	p := prep(b, "HACC")
	spec := p.Spec
	b.Run("PreprocessSerial", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Data)))
		for i := 0; i < b.N; i++ {
			if _, err := trace.ParseBytes(p.Data); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8, 16, 48} {
		workers := workers
		b.Run(fmt.Sprintf("PreprocessParallel%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p.Data)))
			for i := 0; i < b.N; i++ {
				if _, err := trace.ParseBytesParallel(p.Data, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("DependencyAndIdentify", func(b *testing.B) {
		b.ReportAllocs()
		opts := core.DefaultOptions()
		opts.Module = p.Mod
		for i := 0; i < b.N; i++ {
			res, err := core.Analyze(p.Records, spec, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Timing.Dep.Seconds()*1000, "dep-ms")
			b.ReportMetric(res.Timing.Identify.Seconds()*1000, "identify-ms")
		}
	})
}

// BenchmarkTable4_Storage measures one AutoCheck variable checkpoint
// against one BLCR-like full snapshot per benchmark (Table IV shape: the
// variable checkpoint is orders of magnitude smaller).
func BenchmarkTable4_Storage(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			p := prep(b, bench.Name)
			res, err := p.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			var ac, blcr int64
			for i := 0; i < b.N; i++ {
				ac, blcr, err = harness.MeasureStorage(p.Mod, res)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ac), "autocheck-B")
			b.ReportMetric(float64(blcr), "blcr-B")
			b.ReportMetric(float64(blcr)/float64(ac), "reduction-x")
		})
	}
}

// BenchmarkTable4_StorageBackends extends Table IV from single images to
// whole runs through the internal/store engine: per backend/decorator,
// checkpoint the critical set at every IS main-loop boundary and report
// bytes persisted and write latency. The FullSnapshot case is the
// BLCR-like baseline; CriticalSetIncremental persists less than
// CriticalSet because IS's key_array changes only two elements per
// iteration (delta chunks + skipped sections).
func BenchmarkTable4_StorageBackends(b *testing.B) {
	p := prep(b, "IS")
	res, err := p.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  store.Config
	}{
		{"CriticalSet", store.Config{Kind: store.KindMemory}},
		{"CriticalSetSharded", store.Config{Kind: store.KindSharded, Workers: 4}},
		{"CriticalSetAsync", store.Config{Kind: store.KindMemory, Async: true}},
		{"CriticalSetIncremental", store.Config{Kind: store.KindMemory, Incremental: true, Keyframe: 8}},
	}
	b.Run("FullSnapshot", func(b *testing.B) {
		b.ReportAllocs()
		var run *harness.StorageRun
		for i := 0; i < b.N; i++ {
			var err error
			run, err = harness.MeasureStorageRun(p.Mod, res, store.Config{Kind: store.KindMemory}, checkpoint.L1, true)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(run.SnapshotBytes), "snapshot-B")
	})
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var run *harness.StorageRun
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				if cfg.Kind != store.KindMemory {
					cfg.Dir = b.TempDir()
				}
				var err error
				run, err = harness.MeasureStorageRun(p.Mod, res, cfg, checkpoint.L1, false)
				if err != nil {
					b.Fatal(err)
				}
				if run.RestartIter != int64(run.Checkpoints) {
					b.Fatalf("restart recovered iter %d, want %d", run.RestartIter, run.Checkpoints)
				}
			}
			b.ReportMetric(float64(run.LogicalBytes), "image-B")
			b.ReportMetric(float64(run.PersistedBytes), "persisted-B")
		})
	}
}

// BenchmarkValidation runs the §VI-B fail-stop/restart protocol on a
// representative subset (full sweep lives in the test suite).
func BenchmarkValidation(b *testing.B) {
	for _, name := range []string{"CG", "IS", "HACC"} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := prep(b, name)
			res, err := p.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				v, err := validate.New(p.Mod, res, b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				rep, err := v.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Sufficient {
					b.Fatalf("restart failed: %s", rep.Mismatch)
				}
			}
		})
	}
}

// BenchmarkFig5_DDGContraction builds the complete DDG and contracts it
// (Algorithm 1) on the paper's example-code trace.
func BenchmarkFig5_DDGContraction(b *testing.B) {
	p := prep(b, "CG")
	opts := core.DefaultOptions()
	opts.Module = p.Mod
	opts.BuildDDG = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(p.Records, p.Spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Complete.Nodes())), "complete-nodes")
		b.ReportMetric(float64(len(res.Contracted.Nodes())), "contracted-nodes")
	}
}

// BenchmarkParallelTraceRead is the §V-A optimization sweep: parsing
// throughput versus worker count on the largest trace, plus the serial
// binary decode for reference (it needs no workers to beat the sweep).
func BenchmarkParallelTraceRead(b *testing.B) {
	p := prep(b, "HACC")
	for _, workers := range []int{1, 2, 4, 8, 16, 48} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p.Data)))
			for i := 0; i < b.N; i++ {
				var err error
				if workers == 1 {
					_, err = trace.ParseBytes(p.Data)
				} else {
					_, err = trace.ParseBytesParallel(p.Data, workers)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.BinData())))
		for i := 0; i < b.N; i++ {
			if _, err := trace.ParseBinary(p.BinData()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceBinaryVsText is the headline comparison of the trace
// hot-path overhaul on the largest Table III trace: parse speed and
// encoded size for the text format (serial and parallel) against the
// compact binary format, plus both encoders. size-B and binary/text-x
// metrics record the bytes-on-disk story.
func BenchmarkTraceBinaryVsText(b *testing.B) {
	p := prep(b, "HACC")
	sizeRatio := float64(len(p.BinData())) / float64(len(p.Data))
	cases := []struct {
		name string
		data []byte
		fn   func([]byte) ([]trace.Record, error)
	}{
		{"ParseText", p.Data, trace.ParseBytes},
		{"ParseTextParallel8", p.Data, func(d []byte) ([]trace.Record, error) { return trace.ParseBytesParallel(d, 8) }},
		{"ParseBinary", p.BinData(), trace.ParseBinary},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				recs, err := c.fn(c.data)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != len(p.Records) {
					b.Fatalf("parsed %d records, want %d", len(recs), len(p.Records))
				}
			}
			b.ReportMetric(float64(len(c.data)), "size-B")
			b.ReportMetric(sizeRatio, "binary/text-x")
		})
	}
	b.Run("EncodeText", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Data)))
		for i := 0; i < b.N; i++ {
			trace.EncodeAll(p.Records)
		}
	})
	b.Run("EncodeBinary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.BinData())))
		for i := 0; i < b.N; i++ {
			trace.EncodeBinary(p.Records)
		}
	})
	b.Run("AnalyzeStreamText", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Data)))
		opts := core.DefaultOptions()
		opts.Module = p.Mod
		opts.Streaming = true
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeBytes(p.Data, p.Spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AnalyzeStreamBinary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.BinData())))
		opts := core.DefaultOptions()
		opts.Module = p.Mod
		opts.Streaming = true
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeBytes(p.BinData(), p.Spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineAdapters compares the engine's adapters on identical
// input: the materialized offline schedule, the streaming schedule over
// both encodings, and the single-sweep online engine on the largest port
// — then the cross-trace dimension, serial analysis of all 14 ports
// against core.AnalyzeMany pools of 1/4/8 engines (the §V-A parallelism
// turned across traces instead of within one).
func BenchmarkEngineAdapters(b *testing.B) {
	p := prep(b, "HACC")
	opts := core.DefaultOptions()
	opts.Module = p.Mod
	b.Run("Materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(p.Records, p.Spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StreamingText", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.Data)))
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeData(p.Data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StreamingBinary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p.BinData())))
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeData(p.BinData()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.AnalyzeOnline(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Cross-trace parallelism over the whole Table II suite.
	var inputs []core.Input
	for _, bench := range progs.All() {
		inputs = append(inputs, prep(b, bench.Name).Input())
	}
	b.Run("Suite14/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range inputs {
				if _, err := core.Analyze(inputs[j].Records, inputs[j].Spec, inputs[j].Opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("Suite14/many-workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeMany(inputs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_StreamingVsDDG compares the streaming classifier
// (production path) against additionally materializing the complete DDG
// (the paper's construct-then-contract formulation) — the DESIGN.md
// two-builders ablation.
func BenchmarkAblation_StreamingVsDDG(b *testing.B) {
	p := prep(b, "LU")
	base := core.DefaultOptions()
	base.Module = p.Mod
	b.Run("Streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(p.Records, p.Spec, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WithCompleteDDG", func(b *testing.B) {
		b.ReportAllocs()
		opts := base
		opts.BuildDDG = true
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(p.Records, p.Spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_InductionDetection compares static loop analysis
// against the dynamic trace heuristic for Index identification.
func BenchmarkAblation_InductionDetection(b *testing.B) {
	p := prep(b, "MG")
	b.Run("StaticLoopAnalysis", func(b *testing.B) {
		b.ReportAllocs()
		opts := core.DefaultOptions()
		opts.Module = p.Mod
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(p.Records, p.Spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DynamicHeuristic", func(b *testing.B) {
		b.ReportAllocs()
		opts := core.DefaultOptions()
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(p.Records, p.Spec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceGeneration measures the tracing interpreter itself (the
// LLVM-Tracer role; Table II's trace-generation column).
func BenchmarkTraceGeneration(b *testing.B) {
	for _, name := range []string{"Himeno", "EP", "HACC"} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := prep(b, name)
			for i := 0; i < b.N; i++ {
				recs, _, err := TraceProgram(p.Mod)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(recs)), "records")
			}
		})
	}
}

// BenchmarkAblation_OnlineVsTraceFile compares the offline pipeline
// (materialize trace -> parse -> analyze) against the §IX online mode
// (analysis inside the instrumentation callback, no trace file).
func BenchmarkAblation_OnlineVsTraceFile(b *testing.B) {
	p := prep(b, "AMG")
	b.Run("TraceFile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, _, err := TraceProgram(p.Mod)
			if err != nil {
				b.Fatal(err)
			}
			data := EncodeTrace(recs)
			if _, err := AnalyzeBytes(data, p.Spec, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := AnalyzeProgramOnline(p.Mod, p.Spec, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRemoteStore prices the networked checkpoint service end to
// end: N concurrent clients (each its own checkpoint.Context and service
// namespace) checkpointing IS through store.Remote against one
// in-process service, then the restart read path with and without the
// read-through cache tier — repeated restarts re-fetch the same newest
// checkpoint, which the cache turns from a network round trip into a
// local decode.
func BenchmarkRemoteStore(b *testing.B) {
	svc := server.NewWithFactory(server.Config{}, func(ns string) (store.Backend, error) {
		return store.NewMemory(), nil
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	for _, clients := range []int{1, 4, 8} {
		clients := clients
		b.Run(fmt.Sprintf("Put/clients-%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			var run *harness.ManyClientsRun
			for i := 0; i < b.N; i++ {
				var err error
				run, err = harness.RunManyClients("IS", 0,
					store.Config{Kind: store.KindRemote, Addr: ts.URL, Dir: "bench"},
					checkpoint.L1, clients)
				if err != nil {
					b.Fatal(err)
				}
				if run.RestartsOK != clients {
					b.Fatalf("restarts %d/%d ok", run.RestartsOK, clients)
				}
			}
			b.ReportMetric(run.CkptsPerSec, "ckpt/s")
			b.ReportMetric(float64(run.BytesWritten), "written-B")
		})
	}

	// Restart path, cold vs cached. Both namespaces are seeded with the
	// same synthetic checkpoints (3 variables x 256 cells, 8 sequence
	// points) so the only difference is the cache tier.
	mod, err := CompileProgram(`int main() { return 0; }`)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cacheMB int
	}{
		{"Restart/uncached", 0},
		{"Restart/cached-64mb", 64},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := store.Config{
				Kind: store.KindRemote, Addr: ts.URL,
				Dir: "bench-restart-" + tc.name, CacheMB: tc.cacheMB,
			}
			ctx, err := checkpoint.NewContextStore(cfg, checkpoint.L1)
			if err != nil {
				b.Fatal(err)
			}
			defer ctx.Close()
			m := interp.New(mod)
			cells := make([]trace.Value, 256)
			for _, base := range []uint64{0x1000, 0x2000, 0x3000} {
				for i := range cells {
					cells[i] = trace.IntValue(int64(base) + int64(i))
				}
				m.WriteRange(base, cells)
				ctx.Protect(fmt.Sprintf("v%x", base), base, int64(len(cells)*8))
			}
			for i := 1; i <= 8; i++ {
				if err := ctx.Checkpoint(m, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			m2 := interp.New(mod)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				iter, err := ctx.Restart(m2, nil)
				if err != nil || iter != 8 {
					b.Fatalf("restart: iter=%d err=%v", iter, err)
				}
			}
			b.StopTimer()
			st := ctx.StoreStats()
			b.ReportMetric(float64(st.CacheHits), "cache-hits")
		})
	}
}

// BenchmarkReplicatedStore prices the quorum tier over a 3-node
// in-process cluster: Put throughput at each write quorum (W=1 acks the
// fastest node, W=3 waits for every replica), then the read tail with
// one deterministically slow replica — hedged vs unhedged, with p99
// reported per sub-benchmark so the hedging win is visible, not averaged
// away.
func BenchmarkReplicatedStore(b *testing.B) {
	var addrs []string
	for i := 0; i < 3; i++ {
		svc := server.NewWithFactory(server.Config{}, func(ns string) (store.Backend, error) {
			return store.NewMemory(), nil
		})
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		defer svc.Shutdown(context.Background())
		addrs = append(addrs, ts.URL)
	}
	payload := []store.Section{{Name: "v", Data: make([]byte, 64<<10)}}
	for _, w := range []int{1, 2, 3} {
		w := w
		b.Run(fmt.Sprintf("Put/w-%d", w), func(b *testing.B) {
			rb, err := store.Open(store.Config{
				Kind: store.KindReplicated, Addrs: addrs,
				Namespace:   fmt.Sprintf("bench-w%d", w),
				WriteQuorum: w, HedgeAfter: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rb.Close()
			b.SetBytes(int64(len(payload[0].Data)))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rb.Put("ckpt-bench", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Read tail: replica 0 is slowed by a client-side delay failpoint, and
	// the tier reads with R=1 so every read starts on the slow node. The
	// unhedged tier eats the delay each time; the hedged tier races a
	// second replica after its hedge timer.
	seed, err := store.Open(store.Config{
		Kind: store.KindReplicated, Addrs: addrs, Namespace: "bench-hedge",
		WriteQuorum: 3, HedgeAfter: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := seed.Put("ckpt-hedge", payload); err != nil {
		b.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}
	freg := faultinject.NewRegistry(1)
	if err := freg.ArmSchedule(store.SiteReplicaGet(0) + "=delay@every=1@delay=4ms"); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		hedge time.Duration
	}{
		{"Get/slow-replica-unhedged", -1},
		{"Get/slow-replica-hedged", 100 * time.Microsecond},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rb, err := store.Open(store.Config{
				Kind: store.KindReplicated, Addrs: addrs, Namespace: "bench-hedge",
				ReadQuorum: 1, HedgeAfter: tc.hedge, Faults: freg,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rb.Close()
			durs := make([]time.Duration, 0, b.N)
			b.SetBytes(int64(len(payload[0].Data)))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := rb.Get("ckpt-hedge"); err != nil {
					b.Fatal(err)
				}
				durs = append(durs, time.Since(start))
			}
			b.StopTimer()
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			b.ReportMetric(float64(durs[len(durs)*99/100].Nanoseconds()), "p99-ns")
			st := rb.Stats()
			b.ReportMetric(float64(st.HedgesWon), "hedges-won")
		})
	}
}
