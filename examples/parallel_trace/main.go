// Parallel trace analysis demo (paper §V-A). The paper reads one trace
// with 48 OpenMP threads; records within a trace are order-dependent, so
// this reproduction parallelizes across traces instead: AnalyzeMany runs
// one engine per trace over a bounded worker pool. The demo sweeps the
// pool size over the 14 ports' binary (ACTB) traces and reports the
// speedup over one worker.
//
//	go run ./examples/parallel_trace
package main

import (
	"fmt"
	"log"
	"reflect"
	"runtime"
	"time"

	"autocheck"
	"autocheck/internal/progs"
)

func main() {
	var inputs []autocheck.AnalysisInput
	var bytes int
	for _, b := range progs.All() {
		spec, err := b.Spec(0)
		if err != nil {
			log.Fatal(err)
		}
		mod, err := autocheck.CompileProgram(b.Source(0))
		if err != nil {
			log.Fatal(err)
		}
		data, _, err := autocheck.TraceProgramBinary(mod)
		if err != nil {
			log.Fatal(err)
		}
		opts := autocheck.DefaultOptions()
		opts.Module = mod
		inputs = append(inputs, autocheck.AnalysisInput{Name: b.Name, Spec: spec, Opts: opts, Data: data})
		bytes += len(data)
	}
	fmt.Printf("%d ACTB traces, %.2f MiB, %d CPUs\n\n", len(inputs), float64(bytes)/(1<<20), runtime.GOMAXPROCS(0))

	var serial time.Duration
	var want [][]string
	for _, workers := range []int{1, 2, 4, 8, 14} {
		t0 := time.Now()
		results, err := autocheck.AnalyzeMany(inputs, workers)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		got := make([][]string, len(results))
		for i, res := range results {
			got[i] = res.CriticalNames()
		}
		if workers == 1 {
			serial, want = elapsed, got
		}
		fmt.Printf("workers=%-2d  total=%8.2fms  speedup=%.2fx  same critical sets: %v\n",
			workers, float64(elapsed.Microseconds())/1000, float64(serial)/float64(elapsed),
			reflect.DeepEqual(got, want))
	}
}
