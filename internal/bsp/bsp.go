// Package bsp executes an SPMD program on multiple simulated ranks under
// the Bulk Synchronous Parallel model the paper assumes for MPI programs
// (§VII "MPI programs"): ranks compute independently between global
// barriers at main-loop boundaries; communication is buffer copies applied
// at the barrier; checkpointing is synchronous — every rank saves its
// AutoCheck-detected variables at the same barrier, which eliminates
// inter-process dependency and the Domino effect.
//
// The package substantiates two claims of §VII:
//
//  1. "all the checkpointing variable detection is local work" — each
//     rank's trace is analyzed independently, and the per-rank critical
//     sets suffice for a correct global restart;
//  2. "our approach also considers the communication buffer" — halo cells
//     written by the barrier exchange behave exactly like any other
//     memory write in the next superstep's dependency analysis.
package bsp

import (
	"errors"
	"fmt"
	"sync"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/validate"
)

// Exchange is one barrier-time buffer copy: Cells cells from the source
// rank's global SrcVar (starting at SrcOff cells) into the destination
// rank's global DstVar (starting at DstOff cells). It models a matched
// MPI send/receive pair completing at the collective.
type Exchange struct {
	SrcRank int
	SrcVar  string
	SrcOff  int64
	DstRank int
	DstVar  string
	DstOff  int64
	Cells   int64
}

// World is an SPMD execution: one machine per rank running the same
// module, synchronized at main-loop-header barriers.
type World struct {
	Mod       *ir.Module
	Spec      core.LoopSpec
	Ranks     []*interp.Machine
	Exchanges []Exchange
	loop      *validate.Loop
}

// BarrierFunc runs at every global barrier, after the exchanges are
// applied and while all ranks are stopped. entry is the 1-based barrier
// number (the first is loop entry). Returning an error aborts every rank
// with that error (interp.ErrFailStop models a node loss).
type BarrierFunc func(w *World, entry int64) error

// NewWorld prepares a world of n ranks.
func NewWorld(mod *ir.Module, n int, spec core.LoopSpec, exchanges []Exchange) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("bsp: need at least one rank")
	}
	loop, err := validate.FindLoop(mod, spec)
	if err != nil {
		return nil, fmt.Errorf("bsp: %w", err)
	}
	w := &World{Mod: mod, Spec: spec, Exchanges: exchanges, loop: loop}
	for r := 0; r < n; r++ {
		m := interp.New(mod)
		m.Rank = r
		m.Ranks = n
		w.Ranks = append(w.Ranks, m)
	}
	for _, ex := range exchanges {
		if ex.SrcRank < 0 || ex.SrcRank >= n || ex.DstRank < 0 || ex.DstRank >= n {
			return nil, fmt.Errorf("bsp: exchange rank out of range: %+v", ex)
		}
	}
	return w, nil
}

// applyExchanges copies every exchange buffer. All ranks are blocked at
// the barrier, so the copies are race-free.
func (w *World) applyExchanges() error {
	for _, ex := range w.Exchanges {
		src := w.Ranks[ex.SrcRank]
		dst := w.Ranks[ex.DstRank]
		sa, ok := src.GlobalAddr(ex.SrcVar)
		if !ok {
			return fmt.Errorf("bsp: rank %d has no global %q", ex.SrcRank, ex.SrcVar)
		}
		da, ok := dst.GlobalAddr(ex.DstVar)
		if !ok {
			return fmt.Errorf("bsp: rank %d has no global %q", ex.DstRank, ex.DstVar)
		}
		vals := src.ReadRange(sa+uint64(ex.SrcOff*8), ex.Cells)
		dst.WriteRange(da+uint64(ex.DstOff*8), vals)
	}
	return nil
}

// rankState coordinates one rank's goroutine with the barrier master.
type rankState struct {
	arrived chan struct{}
	resume  chan error
	done    chan error
	out     string
}

// Run executes all ranks in lockstep supersteps and returns each rank's
// printed output. A nil barrier just applies the exchanges.
func (w *World) Run(barrier BarrierFunc) ([]string, error) {
	states := make([]*rankState, len(w.Ranks))
	for r, m := range w.Ranks {
		st := &rankState{
			arrived: make(chan struct{}),
			resume:  make(chan error),
			done:    make(chan error, 1),
		}
		states[r] = st
		// The lockstep barrier: each rank parks at every main-loop boundary
		// until the master resumes it.
		m.BlockHook = func(_ *interp.Machine, _ *interp.Frame, blk *ir.Block) error {
			if !w.loop.AtBoundary(blk) {
				return nil
			}
			st.arrived <- struct{}{}
			return <-st.resume
		}
		go func(m *interp.Machine, st *rankState) {
			out, err := m.Run()
			st.out = out
			st.done <- err
		}(m, st)
	}

	active := make([]bool, len(w.Ranks))
	for i := range active {
		active[i] = true
	}
	var firstErr error
	var entry int64
	finished := 0
	for finished < len(w.Ranks) {
		// Wait for every active rank to arrive at the barrier or finish.
		arrivedRanks := make([]int, 0, len(w.Ranks))
		for r, st := range states {
			if !active[r] {
				continue
			}
			select {
			case <-st.arrived:
				arrivedRanks = append(arrivedRanks, r)
			case err := <-st.done:
				active[r] = false
				finished++
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		if len(arrivedRanks) == 0 {
			continue
		}
		entry++
		// The global collective: exchanges first, then the barrier hook
		// (synchronous checkpointing happens after the collective, §VII).
		resumeErr := firstErr
		if resumeErr == nil {
			if err := w.applyExchanges(); err != nil {
				resumeErr = err
			}
		}
		if resumeErr == nil && barrier != nil {
			resumeErr = barrier(w, entry)
		}
		for _, r := range arrivedRanks {
			states[r].resume <- resumeErr
		}
		if resumeErr != nil && firstErr == nil {
			firstErr = resumeErr
		}
	}
	outs := make([]string, len(w.Ranks))
	for r, st := range states {
		outs[r] = st.out
	}
	return outs, firstErr
}

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
