package validate

import (
	"fmt"

	"autocheck/internal/cfg"
	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// Loop is a module's main computation loop, resolved once. Its header is
// the boundary the §VI-B protocol works at: every run that checkpoints,
// fail-stops or restarts the module drives it through Run.
type Loop struct {
	mod    *ir.Module
	header *ir.Block
}

// FindLoop resolves the outermost loop of spec's line range inside
// spec's function.
func FindLoop(mod *ir.Module, spec core.LoopSpec) (*Loop, error) {
	fn := mod.Func(spec.Function)
	if fn == nil {
		return nil, fmt.Errorf("validate: no function %q", spec.Function)
	}
	loop := cfg.New(fn).OutermostLoopInRange(spec.StartLine, spec.EndLine)
	if loop == nil {
		return nil, fmt.Errorf("validate: no loop in %q lines %d-%d",
			spec.Function, spec.StartLine, spec.EndLine)
	}
	return &Loop{mod: mod, header: loop.Header}, nil
}

// AtBoundary reports whether entering blk is a main-loop boundary: one
// evaluation of the loop's exit test.
func (l *Loop) AtBoundary(blk *ir.Block) bool { return blk == l.header }

// Run executes the module on a fresh machine and calls at on every
// main-loop boundary. iter is the number of completed iterations: 0 at
// loop entry, where a restart recovers; k ≥ 1 after the k-th iteration,
// where checkpoint k is taken; N at the exit test. An error from at ends
// the run and is returned.
func (l *Loop) Run(at func(m *interp.Machine, iter int64) error) (*interp.Machine, string, error) {
	m := interp.New(l.mod)
	iter := int64(-1)
	m.BlockHook = func(mm *interp.Machine, _ *interp.Frame, blk *ir.Block) error {
		if !l.AtBoundary(blk) {
			return nil
		}
		iter++
		return at(mm, iter)
	}
	out, err := m.Run()
	return m, out, err
}

// State is what a restarted run is compared on: printed output plus the
// cells of the critical variables.
type State struct {
	Output string
	Cells  map[string][]trace.Value
}

// Capture reads the critical variables' cells from m. The first entry of
// a name wins, and a variable without an address (base 0) is skipped.
func Capture(m *interp.Machine, critical []core.CriticalVar) map[string][]trace.Value {
	cells := make(map[string][]trace.Value, len(critical))
	for _, c := range critical {
		if _, seen := cells[c.Name]; seen || c.Base == 0 {
			continue
		}
		cells[c.Name] = m.ReadRange(c.Base, (c.SizeBytes+7)/8)
	}
	return cells
}
