package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"autocheck"
	"autocheck/internal/analysis"
	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/harness"
	"autocheck/internal/interp"
	"autocheck/internal/obs"
	"autocheck/internal/progs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// seedRemoteRestart opens a checkpoint context against the service under
// its own namespace, seeds it with 8 synthetic checkpoints (3 variables
// x 256 cells), and returns the context, a machine to restart into, and
// the byte size of one restart's reads.
func seedRemoteRestart(addr, name string, cacheMB int, reg *obs.Registry) (*checkpoint.Context, *interp.Machine, int, error) {
	mod, err := autocheck.CompileProgram(`int main() { return 0; }`)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := store.Config{Kind: store.KindRemote, Addr: addr, Dir: "bench-" + name, CacheMB: cacheMB, Obs: reg}
	ctx, err := checkpoint.NewContextStore(cfg, checkpoint.L1)
	if err != nil {
		return nil, nil, 0, err
	}
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
			ctx.Close()
			return nil, nil, 0, err
		}
	}
	return ctx, interp.New(mod), int(ctx.LastBytes()), nil
}

// cmdBench measures the trace hot path — text serial/parallel parse,
// binary parse, and the two encodings' sizes — on one benchmark's trace,
// plus analysis throughput through the engine adapters (materialized,
// streaming, online) and the cross-trace AnalyzeMany pool over all 14
// ports, and appends the result to a JSON trajectory file, so the repo
// accumulates perf history without hand-running `go test -bench`.

// benchEntry is one measured configuration. Workers records the pool or
// chunk parallelism of configurations that have one, and Gomaxprocs the
// scheduler width the run actually had — a flat analyze-many curve means
// nothing without knowing the machine was 1-wide.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	P99Ns       int64   `json:"p99_ns,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Gomaxprocs  int     `json:"gomaxprocs,omitempty"`
}

// benchObsSnapshot condenses the telemetry registry that observed the
// remote series into the trajectory: p95 latency per store/server
// operation and the cache tier's hit rate, so perf history carries the
// distribution tails alongside the ns/op means.
type benchObsSnapshot struct {
	P95Ns        map[string]int64 `json:"p95_ns"`
	CacheHitRate float64          `json:"cache_hit_rate"`
}

// benchReport is one `autocheck bench` run.
type benchReport struct {
	Date            string            `json:"date"`
	Benchmark       string            `json:"benchmark"`
	Scale           int               `json:"scale"`
	Records         int               `json:"records"`
	TextBytes       int               `json:"text_bytes"`
	BinaryBytes     int               `json:"binary_bytes"`
	BinaryTextRatio float64           `json:"binary_text_ratio"`
	Entries         []benchEntry      `json:"entries"`
	Obs             *benchObsSnapshot `json:"obs,omitempty"`
}

func runOne(name string, totalBytes int, fn func(b *testing.B)) benchEntry {
	r := testing.Benchmark(fn)
	e := benchEntry{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}
	if r.NsPerOp() > 0 {
		e.MBPerSec = float64(totalBytes) / (float64(r.NsPerOp()) / 1e9) / 1e6
	}
	fmt.Printf("  %-22s %10.2f ms/op  %8.1f MB/s  %8d allocs/op\n",
		name, float64(e.NsPerOp)/1e6, e.MBPerSec, e.AllocsPerOp)
	return e
}

// withWorkers tags an entry with its parallelism knob.
func withWorkers(e benchEntry, w int) benchEntry {
	e.Workers = w
	return e
}

// benchHedgedReads measures the replicated tier's read tail with one
// deterministically slow replica (a client-side delay failpoint on r0's
// get site): the unhedged tier eats the delay on every read, the hedged
// tier races a second replica after its hedge timer. The p99 column is
// the comparison that matters.
func benchHedgedReads(addrs []string) ([]benchEntry, error) {
	const (
		key       = "ckpt-hedge"
		iters     = 300
		slowDelay = 4 * time.Millisecond
	)
	seed, err := store.Open(store.Config{
		Kind: store.KindReplicated, Addrs: addrs, Namespace: "bench-hedge",
		WriteQuorum: 3, HedgeAfter: -1,
	})
	if err != nil {
		return nil, err
	}
	payload := []store.Section{{Name: "v", Data: make([]byte, 64<<10)}}
	if err := seed.Put(key, payload); err != nil {
		seed.Close()
		return nil, err
	}
	if err := seed.Close(); err != nil {
		return nil, err
	}
	freg := faultinject.NewRegistry(1)
	if err := freg.ArmSchedule(fmt.Sprintf("%s=delay@every=1@delay=%s", store.SiteReplicaGet(0), slowDelay)); err != nil {
		return nil, err
	}
	var entries []benchEntry
	for _, tc := range []struct {
		name       string
		hedgeAfter time.Duration
	}{
		{"replicated-get-slow-unhedged", -1},
		{"replicated-get-slow-hedged", 500 * time.Microsecond},
	} {
		rb, err := store.Open(store.Config{
			Kind: store.KindReplicated, Addrs: addrs, Namespace: "bench-hedge",
			ReadQuorum: 1, HedgeAfter: tc.hedgeAfter, Faults: freg,
		})
		if err != nil {
			return nil, err
		}
		durs := make([]time.Duration, 0, iters)
		var total time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := rb.Get(key); err != nil {
				rb.Close()
				return nil, fmt.Errorf("%s: get: %w", tc.name, err)
			}
			d := time.Since(start)
			durs = append(durs, d)
			total += d
		}
		if err := rb.Close(); err != nil {
			return nil, err
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		e := benchEntry{
			Name:    tc.name,
			NsPerOp: (total / iters).Nanoseconds(),
			P99Ns:   durs[iters*99/100].Nanoseconds(),
		}
		e.MBPerSec = float64(len(payload[0].Data)) / (float64(e.NsPerOp) / 1e9) / 1e6
		fmt.Printf("  %-28s %10.2f ms/op  %8.1f MB/s  p99=%.2fms\n",
			e.Name, float64(e.NsPerOp)/1e6, e.MBPerSec, float64(e.P99Ns)/1e6)
		entries = append(entries, e)
	}
	return entries, nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH_trace.json", "output JSON trajectory file (appended)")
	benchName := fs.String("benchmark", "HACC", "benchmark port to trace")
	scale := fs.Int("scale", 0, "input scale (0 = default)")
	workers := fs.Int("workers", 8, "parallel text parse workers")
	assertScaling := fs.Bool("assert-scaling", false,
		"fail unless analyze-many-8 beats analyze-many-1 by >= 30% (no-op below 4 CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bench := progs.Get(*benchName)
	if bench == nil {
		return fmt.Errorf("unknown benchmark %q", *benchName)
	}
	// Load the trajectory up front so a corrupt file fails before
	// minutes of benchmarking.
	history, err := loadTrajectory(*out)
	if err != nil {
		return err
	}
	p, err := harness.Prepare(bench, *scale)
	if err != nil {
		return err
	}
	rep := benchReport{
		Date:            time.Now().UTC().Format(time.RFC3339),
		Benchmark:       bench.Name,
		Scale:           *scale,
		Records:         len(p.Records),
		TextBytes:       len(p.Data),
		BinaryBytes:     len(p.BinData()),
		BinaryTextRatio: float64(len(p.BinData())) / float64(len(p.Data)),
	}
	fmt.Printf("%s trace: %d records, text %d B, binary %d B (%.0f%%)\n",
		bench.Name, rep.Records, rep.TextBytes, rep.BinaryBytes, 100*rep.BinaryTextRatio)
	rep.Entries = append(rep.Entries,
		runOne("text-parse-serial", len(p.Data), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trace.ParseBytes(p.Data); err != nil {
					b.Fatal(err)
				}
			}
		}),
		withWorkers(runOne(fmt.Sprintf("text-parse-parallel%d", *workers), len(p.Data), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trace.ParseBytesParallel(p.Data, *workers); err != nil {
					b.Fatal(err)
				}
			}
		}), *workers),
		runOne("binary-parse", len(p.BinData()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trace.ParseBinary(p.BinData()); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runOne("text-encode", len(p.Data), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trace.EncodeAll(p.Records)
			}
		}),
		runOne("binary-encode", len(p.BinData()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trace.EncodeBinary(p.Records)
			}
		}),
	)

	// Analysis throughput: the three engine adapters on this benchmark's
	// trace, then cross-trace parallelism (one engine per port) over all
	// 14 ports at several pool sizes.
	rep.Entries = append(rep.Entries,
		runOne("analyze-materialized", len(p.Data), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Analyze(); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runOne("analyze-streaming", len(p.Data), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.AnalyzeData(p.Data); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runOne("analyze-online", len(p.Data), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.AnalyzeOnline(); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)

	// Networked analysis: the same trace through the ingest service —
	// one-shot, one chunked session, and concurrent chunked sessions —
	// against analyze-materialized as the local baseline.
	fmt.Println("starting in-process ingest service for the analyze-remote series...")
	isvc := server.NewWithFactory(
		server.Config{Ingest: &analysis.Config{MaxSessions: 32, MaxInFlight: 64}},
		func(ns string) (store.Backend, error) { return store.NewMemory(), nil })
	its := httptest.NewServer(isvc.Handler())
	defer its.Close()
	defer isvc.Shutdown(context.Background())
	icli, err := analysis.NewClient(its.URL)
	if err != nil {
		return err
	}
	bin := p.BinData()
	rep.Entries = append(rep.Entries,
		runOne("analyze-remote-oneshot", len(bin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := icli.Analyze(bin, p.Spec); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runOne("analyze-remote-chunked", len(bin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := icli.AnalyzeChunked(bin, p.Spec, analysis.DefaultChunkBytes); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)
	for _, n := range []int{1, 4, 8} {
		n := n
		rep.Entries = append(rep.Entries, withWorkers(
			runOne(fmt.Sprintf("analyze-remote-sessions-%d", n), n*len(bin), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					errs := make([]error, n)
					for j := 0; j < n; j++ {
						j := j
						wg.Add(1)
						go func() {
							defer wg.Done()
							_, errs[j] = icli.AnalyzeChunked(bin, p.Spec, analysis.DefaultChunkBytes)
						}()
					}
					wg.Wait()
					for _, e := range errs {
						if e != nil {
							b.Fatal(e)
						}
					}
				}
			}), n))
	}
	fmt.Println("preparing all 14 ports for the cross-trace sweep...")
	var inputs []core.Input
	totalText := 0
	for _, bb := range progs.All() {
		pp, err := harness.Prepare(bb, 0)
		if err != nil {
			return err
		}
		inputs = append(inputs, pp.Input())
		totalText += len(pp.Data)
	}
	manyNs := map[int]int64{}
	for _, w := range []int{1, 4, 8} {
		w := w
		e := withWorkers(runOne(fmt.Sprintf("analyze-many-%d", w), totalText, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeMany(inputs, w); err != nil {
					b.Fatal(err)
				}
			}
		}), w)
		manyNs[w] = e.NsPerOp
		rep.Entries = append(rep.Entries, e)
	}
	if *assertScaling {
		// Scaling across traces needs scheduler width; on narrow runners
		// the pool degenerates to sequential and the assertion is vacuous.
		if np := runtime.GOMAXPROCS(0); np < 4 {
			fmt.Printf("assert-scaling: skipped (GOMAXPROCS=%d < 4)\n", np)
		} else if got, want := manyNs[8], manyNs[1]*7/10; got >= want {
			return fmt.Errorf("assert-scaling: analyze-many-8 = %.2fms/op, want < 0.7x analyze-many-1 (%.2fms/op)",
				float64(got)/1e6, float64(manyNs[1])/1e6)
		} else {
			fmt.Printf("assert-scaling: ok (many-8 %.2fms vs many-1 %.2fms)\n",
				float64(got)/1e6, float64(manyNs[1])/1e6)
		}
	}

	// Networked checkpoint service: N concurrent IS clients checkpointing
	// through store.Remote into one in-process service (latency +
	// throughput vs client count), then the restart read path with and
	// without the read-through cache tier.
	fmt.Println("starting in-process checkpoint service for the remote series...")
	// One registry observes the whole remote series — service routes,
	// per-namespace store stacks, and the cached clients — and its
	// snapshot rides into the trajectory entry.
	reg := obs.New()
	svc := server.NewWithFactory(server.Config{Obs: reg}, func(ns string) (store.Backend, error) {
		return store.NewMemory(), nil
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	for _, clients := range []int{1, 4, 8} {
		clients := clients
		tmpl := store.Config{Kind: store.KindRemote, Addr: ts.URL, Dir: "bench"}
		// One calibration run sizes the traffic so MB/s is meaningful.
		cal, err := harness.RunManyClients("IS", 0, tmpl, checkpoint.L1, clients)
		if err != nil {
			return err
		}
		rep.Entries = append(rep.Entries,
			runOne(fmt.Sprintf("remote-put-clients-%d", clients), int(cal.BytesWritten), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run, err := harness.RunManyClients("IS", 0, tmpl, checkpoint.L1, clients)
					if err != nil {
						b.Fatal(err)
					}
					if run.RestartsOK != clients {
						b.Fatalf("restarts %d/%d ok", run.RestartsOK, clients)
					}
				}
			}))
	}
	for _, tc := range []struct {
		name    string
		cacheMB int
	}{
		{"remote-restart-uncached", 0},
		{"remote-restart-cached", 64},
	} {
		tc := tc
		ctx, m, bytesPerRestart, err := seedRemoteRestart(ts.URL, tc.name, tc.cacheMB, reg)
		if err != nil {
			return err
		}
		rep.Entries = append(rep.Entries,
			runOne(tc.name, bytesPerRestart, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					iter, err := ctx.Restart(m, nil)
					if err != nil || iter != 8 {
						b.Fatalf("restart: iter=%d err=%v", iter, err)
					}
				}
			}))
		ctx.Close()
	}

	// Replicated quorum tier: put throughput at each write quorum over a
	// 3-node in-process cluster, then the read tail with one slow replica
	// — hedged vs unhedged — where the p99 column is the point.
	fmt.Println("starting a 3-node in-process cluster for the replicated series...")
	var addrs []string
	for i := 0; i < 3; i++ {
		nsvc := server.NewWithFactory(server.Config{}, func(ns string) (store.Backend, error) {
			return store.NewMemory(), nil
		})
		nts := httptest.NewServer(nsvc.Handler())
		defer nts.Close()
		defer nsvc.Shutdown(context.Background())
		addrs = append(addrs, nts.URL)
	}
	repPayload := []store.Section{{Name: "v", Data: make([]byte, 64<<10)}}
	for _, w := range []int{1, 2, 3} {
		rb, err := store.Open(store.Config{
			Kind: store.KindReplicated, Addrs: addrs, Namespace: fmt.Sprintf("bench-w%d", w),
			WriteQuorum: w, ReadQuorum: 2, HedgeAfter: -1,
		})
		if err != nil {
			return err
		}
		rep.Entries = append(rep.Entries,
			runOne(fmt.Sprintf("replicated-put-w%d", w), len(repPayload[0].Data), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := rb.Put("ckpt-bench", repPayload); err != nil {
						b.Fatal(err)
					}
				}
			}))
		if err := rb.Close(); err != nil {
			return err
		}
	}
	hedgeEntries, err := benchHedgedReads(addrs)
	if err != nil {
		return err
	}
	rep.Entries = append(rep.Entries, hedgeEntries...)

	// Fold the remote series' telemetry into the entry: per-op p95 tails
	// plus the cache tier's hit rate.
	snap := reg.Snapshot()
	bo := &benchObsSnapshot{P95Ns: make(map[string]int64)}
	for name, h := range snap.Histograms {
		if strings.HasSuffix(name, ".ns") && h.Count > 0 {
			bo.P95Ns[name] = h.P95Ns
		}
	}
	hits := snap.Counters["store.cache.hits"] + snap.Counters["store.cache.follower_hits"]
	if total := hits + snap.Counters["store.cache.misses"]; total > 0 {
		bo.CacheHitRate = float64(hits) / float64(total)
	}
	rep.Obs = bo
	fmt.Printf("obs: %d op histograms, cache hit rate %.1f%%\n", len(bo.P95Ns), 100*bo.CacheHitRate)

	return appendTrajectory(*out, history, rep)
}
