package core

import (
	"errors"
	"fmt"

	"autocheck/internal/pool"
	"autocheck/internal/trace"
)

// Input names one independent trace for AnalyzeMany. Exactly one of the
// three sources should be set; they are consulted in the order Records,
// Data, Path, mirroring the single-trace entry points (Analyze,
// AnalyzeBytes, AnalyzeFile).
type Input struct {
	Name string // label used in error messages (benchmark name, rank, shard, ...)
	Spec LoopSpec
	Opts Options

	Records []trace.Record // materialized records, or
	Data    []byte         // an encoded trace (text or binary), or
	Path    string         // a trace file on disk
}

// analyze runs the engine over whichever source the input names.
func (in *Input) analyze() (*Result, error) {
	return in.analyzeIn(&scratch{})
}

// analyzeIn is analyze over a caller-owned scratch bundle. AnalyzeMany
// hands each worker its own bundle so consecutive traces on the same
// worker reuse one engine and batch arena.
func (in *Input) analyzeIn(sc *scratch) (*Result, error) {
	switch {
	case in.Records != nil:
		return analyzeRecordsIn(sc, in.Records, in.Spec, in.Opts)
	case in.Data != nil:
		return analyzeBytesIn(sc, in.Data, in.Spec, in.Opts)
	case in.Path != "":
		return analyzeFileIn(sc, in.Path, in.Spec, in.Opts)
	}
	return nil, fmt.Errorf("core: no trace source set")
}

func (in *Input) label(i int) string {
	if in.Name != "" {
		return in.Name
	}
	return fmt.Sprintf("input %d", i)
}

// AnalyzeMany analyzes independent traces concurrently, one engine per
// trace, with at most workers engines in flight (<= 0 means GOMAXPROCS).
// This is the across-traces dimension of the paper's §V-A parallelism:
// records within one trace are order-dependent, but distinct traces —
// the 14 benchmark ports, or the per-rank shards of a multi-rank run —
// share nothing and scale with the pool. Results are positional;
// per-input failures leave a nil slot and are joined into the returned
// error, so one bad trace never hides the other thirteen results.
func AnalyzeMany(inputs []Input, workers int) ([]*Result, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	results := make([]*Result, len(inputs))
	errs := make([]error, len(inputs))
	scratches := make([]*scratch, pool.Resolve(len(inputs), workers))
	pool.ForEachWorker(len(inputs), workers, func(w, i int) {
		if scratches[w] == nil {
			scratches[w] = &scratch{}
		}
		res, err := inputs[i].analyzeIn(scratches[w])
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", inputs[i].label(i), err)
			return
		}
		results[i] = res
	})
	return results, errors.Join(errs...)
}
