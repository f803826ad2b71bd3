// Package bsp is AutoCheck's side of an SPMD program under the Bulk
// Synchronous Parallel model the paper assumes for MPI programs (§VII
// "MPI programs"): "all the checkpointing variable detection is local
// work". Each rank's trace is analyzed independently (AnalyzeRank,
// ParallelAnalyzeRanks), and the per-rank critical sets suffice for a
// correct global restart.
//
// The ranks run in validate.Loop, in lockstep between global barriers at
// main-loop boundaries, with the barrier exchanges applied there
// (validate.FindWorld). They checkpoint and restart through
// validate.FailStop: every rank at the same barrier, and every rank back
// at one recovery line, which rules out the Domino effect.
package bsp

import (
	"errors"
	"sync"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
)

// AnalyzeRank traces one rank's execution of the program in isolation and
// runs AutoCheck on it — the paper's "checkpointing variable detection is
// local work". A fresh single-rank machine with the same rank identity is
// used so the trace is not perturbed by barrier scheduling; under BSP the
// data dependencies between MLI variables are the same in serial and
// parallel runs (§VII "Parallel and Serial").
func AnalyzeRank(mod *ir.Module, rank, ranks int, spec core.LoopSpec, opts core.Options) (*core.Result, error) {
	eng, err := core.NewEngine(spec, opts)
	if err != nil {
		return nil, err
	}
	m := interp.New(mod)
	m.Rank = rank
	m.Ranks = ranks
	m.TraceInto(eng)
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrFailStop) {
		return nil, err
	}
	return eng.Finish()
}

// ParallelAnalyzeRanks analyzes every rank concurrently.
func ParallelAnalyzeRanks(mod *ir.Module, ranks int, spec core.LoopSpec, opts core.Options) ([]*core.Result, error) {
	results := make([]*core.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = AnalyzeRank(mod, r, ranks, spec, opts)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
