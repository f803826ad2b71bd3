// Online (instrumentation-time) analysis demo — the paper's §IX future
// work: "incorporate AutoCheck into LLVM to be an independent LLVM
// instrumentation tool to eliminate the performance bottleneck because of
// trace file processing."
//
// Every mode here is the same incremental engine behind a different
// adapter. Offline materializes a trace, encodes it, parses it back, and
// feeds the records to the engine; online wires the engine straight into
// the tracer, so no trace bytes ever exist. The
// demo runs both on the AMG port (the most expensive analysis row of
// Table III), then fans the engine out across every benchmark port with
// AnalyzeMany to show the cross-trace dimension of §V-A parallelism.
//
//	go run ./examples/online_analysis
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"autocheck"
	"autocheck/internal/progs"
)

func main() {
	bench := progs.Get("AMG")
	src := bench.Source(16)
	spec, err := bench.Spec(16)
	if err != nil {
		log.Fatal(err)
	}
	mod, err := autocheck.CompileProgram(src)
	if err != nil {
		log.Fatal(err)
	}

	// Offline: trace to a (in-memory) file, parse it back, analyze.
	t0 := time.Now()
	recs, _, err := autocheck.TraceProgram(mod)
	if err != nil {
		log.Fatal(err)
	}
	data := autocheck.EncodeTrace(recs)
	offRes, err := autocheck.AnalyzeBytes(data, spec, autocheck.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	offline := time.Since(t0)

	// Online: the engine observes records inside the instrumentation
	// callback; no trace is encoded, written, or parsed.
	t0 = time.Now()
	onRes, _, err := autocheck.AnalyzeProgramOnline(mod, spec, autocheck.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	online := time.Since(t0)

	fmt.Printf("AMG trace: %d records (%.2f MiB as a trace file)\n\n",
		offRes.Stats.Records, float64(len(data))/(1<<20))
	fmt.Printf("offline (trace file -> parse -> engine schedule): %8.2fms, critical=%v\n",
		float64(offline.Microseconds())/1000, offRes.CriticalNames())
	fmt.Printf("online  (engine inside the instrumentation):      %8.2fms, critical=%v\n",
		float64(online.Microseconds())/1000, onRes.CriticalNames())
	fmt.Printf("\nspeedup from eliminating trace-file processing: %.2fx\n",
		float64(offline)/float64(online))

	// Cross-trace parallelism: one engine per port, a bounded pool of
	// workers. Each input is independent, so the pool scales with cores.
	fmt.Printf("\n-- AnalyzeMany: all %d ports, one engine each --\n", len(progs.All()))
	var inputs []autocheck.AnalysisInput
	for _, b := range progs.All() {
		bspec, err := b.Spec(0)
		if err != nil {
			log.Fatal(err)
		}
		bmod, err := autocheck.CompileProgram(b.Source(0))
		if err != nil {
			log.Fatal(err)
		}
		brecs, _, err := autocheck.TraceProgram(bmod)
		if err != nil {
			log.Fatal(err)
		}
		opts := autocheck.DefaultOptions()
		opts.Module = bmod
		inputs = append(inputs, autocheck.AnalysisInput{
			Name: b.Name, Spec: bspec, Opts: opts, Records: brecs,
		})
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t0 = time.Now()
		results, err := autocheck.AnalyzeMany(inputs, workers)
		if err != nil {
			log.Fatal(err)
		}
		total := 0
		for _, r := range results {
			total += len(r.Critical)
		}
		fmt.Printf("workers=%-2d %8.2fms  (%d critical variables across %d ports)\n",
			workers, float64(time.Since(t0).Microseconds())/1000, total, len(results))
	}
}
