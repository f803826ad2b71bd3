package validate

import (
	"errors"
	"fmt"
	"iter"

	"autocheck/internal/cfg"
	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// Loop is a module's main computation loop, resolved once, run by one
// rank or by several in lockstep under the Bulk Synchronous Parallel
// model of §VII: ranks compute independently between global barriers at
// the loop's boundaries, and communication is buffer copies applied at
// the barrier. The header is the boundary the §VI-B protocol works at:
// every run that checkpoints, fail-stops or restarts the module
// (FailStop) drives it through Run.
type Loop struct {
	mod       *ir.Module
	header    *ir.Block
	ranks     int
	exchanges []Exchange
}

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

// FindLoop resolves the outermost loop of spec's line range inside
// spec's function, run by one rank.
func FindLoop(mod *ir.Module, spec core.LoopSpec) (*Loop, error) {
	return FindWorld(mod, spec, 1, nil)
}

// FindWorld resolves the loop as FindLoop does, run by ranks machines of
// the module with the exchanges applied at every barrier.
func FindWorld(mod *ir.Module, spec core.LoopSpec, ranks int, exchanges []Exchange) (*Loop, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("validate: need at least one rank, got %d", ranks)
	}
	for _, ex := range exchanges {
		if ex.SrcRank < 0 || ex.SrcRank >= ranks || ex.DstRank < 0 || ex.DstRank >= ranks {
			return nil, fmt.Errorf("validate: exchange rank out of range: %+v", ex)
		}
	}
	fn := mod.Func(spec.Function)
	if fn == nil {
		return nil, fmt.Errorf("validate: no function %q", spec.Function)
	}
	loop := cfg.New(fn).OutermostLoopInRange(spec.StartLine, spec.EndLine)
	if loop == nil {
		return nil, fmt.Errorf("validate: no loop in %q lines %d-%d",
			spec.Function, spec.StartLine, spec.EndLine)
	}
	return &Loop{mod: mod, header: loop.Header, ranks: ranks, exchanges: exchanges}, nil
}

// errStopped ends a rank whose run was abandoned at a barrier.
var errStopped = errors.New("validate: run stopped at a barrier")

// Run executes the module on a fresh machine per rank and returns each
// rank's machine and printed output. The ranks run in lockstep on the
// caller's goroutine, each an iter.Pull coroutine: at every main-loop
// boundary every rank stops, the exchanges are applied, and at is called
// once with every rank's machine. iter is the number of completed
// iterations: 0 at loop entry, where a restart recovers; k ≥ 1 after the
// k-th iteration, where checkpoint k is taken; N at the exit test. An
// error from at or from a rank ends the run and is returned; a panic in
// at unwinds through Run. Either way every rank is ended first.
func (l *Loop) Run(at func(ms []*interp.Machine, iter int64) error) ([]*interp.Machine, []string, error) {
	ms := make([]*interp.Machine, l.ranks)
	outs := make([]string, l.ranks)
	errs := make([]error, l.ranks)
	nexts := make([]func() (struct{}, bool), l.ranks)
	for r := range ms {
		m := interp.New(l.mod)
		m.Rank, m.Ranks = r, l.ranks
		ms[r] = m
		next, stop := iter.Pull(func(yield func(struct{}) bool) {
			m.BlockHook = func(_ *interp.Machine, _ *interp.Frame, blk *ir.Block) error {
				if blk != l.header || yield(struct{}{}) {
					return nil
				}
				return errStopped
			}
			outs[r], errs[r] = m.Run()
		})
		defer stop()
		nexts[r] = next
	}
	for k := int64(0); ; k++ {
		arrived := false
		for r, next := range nexts {
			if _, ok := next(); ok {
				arrived = true
			} else if errs[r] != nil {
				return ms, outs, errs[r]
			}
		}
		if !arrived {
			return ms, outs, nil
		}
		if err := l.exchange(ms); err != nil {
			return ms, outs, err
		}
		if err := at(ms, k); err != nil {
			return ms, outs, err
		}
	}
}

// exchange applies every exchange. Every rank is stopped at the barrier.
func (l *Loop) exchange(ms []*interp.Machine) error {
	for _, ex := range l.exchanges {
		src, dst := ms[ex.SrcRank], ms[ex.DstRank]
		sa, ok := src.GlobalAddr(ex.SrcVar)
		if !ok {
			return fmt.Errorf("validate: rank %d has no global %q", ex.SrcRank, ex.SrcVar)
		}
		da, ok := dst.GlobalAddr(ex.DstVar)
		if !ok {
			return fmt.Errorf("validate: rank %d has no global %q", ex.DstRank, ex.DstVar)
		}
		dst.WriteRange(da+uint64(ex.DstOff*8), src.ReadRange(sa+uint64(ex.SrcOff*8), ex.Cells))
	}
	return nil
}

// State is what a restarted run is compared on: printed output plus the
// cells of the critical variables.
type State struct {
	Output string
	Cells  map[string][]trace.Value
}

// Reference is a program's failure-free trajectory, per rank: the
// critical cells after every iteration k ≥ 1 (what checkpoint k must
// restore) and the final state (what every recovery must converge back
// to).
type Reference struct {
	Iterations int64
	Cells      map[int64][]map[string][]trace.Value
	Final      []State
}

// Record runs the loop failure-free once and records its Reference, rank
// r's over critical[r]. A loop of fewer than 2 iterations has no fail
// point inside it, so it is an error.
func Record(l *Loop, critical [][]core.CriticalVar) (*Reference, error) {
	if err := l.perRank(critical); err != nil {
		return nil, err
	}
	ref := &Reference{Cells: make(map[int64][]map[string][]trace.Value)}
	ms, outs, err := l.Run(func(ms []*interp.Machine, iter int64) error {
		if iter >= 1 {
			ref.Cells[iter] = capture(ms, critical, nil)
		}
		ref.Iterations = iter
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("validate: reference run failed: %w", err)
	}
	if ref.Iterations < 2 {
		return nil, fmt.Errorf("validate: main loop ran only %d iterations; need at least 2", ref.Iterations)
	}
	ref.Final = finalStates(ms, outs, critical)
	return ref, nil
}

// perRank checks that critical holds one critical set per rank.
func (l *Loop) perRank(critical [][]core.CriticalVar) error {
	if len(critical) != l.ranks {
		return fmt.Errorf("validate: %d critical sets for %d ranks", len(critical), l.ranks)
	}
	return nil
}

// capture reads every rank's critical cells, rank r's over critical[r],
// but for the names in skip. The first entry of a name wins, and a
// variable without an address (base 0) is left out.
func capture(ms []*interp.Machine, critical [][]core.CriticalVar, skip map[string]bool) []map[string][]trace.Value {
	cells := make([]map[string][]trace.Value, len(ms))
	for r, m := range ms {
		cells[r] = make(map[string][]trace.Value, len(critical[r]))
		for _, c := range critical[r] {
			if _, seen := cells[r][c.Name]; !seen && c.Base != 0 && !skip[c.Name] {
				cells[r][c.Name] = m.ReadRange(c.Base, (c.SizeBytes+7)/8)
			}
		}
	}
	return cells
}

// finalStates pairs every rank's output with its captured cells.
func finalStates(ms []*interp.Machine, outs []string, critical [][]core.CriticalVar) []State {
	final := make([]State, len(ms))
	for r, cells := range capture(ms, critical, nil) {
		final[r] = State{Output: outs[r], Cells: cells}
	}
	return final
}
