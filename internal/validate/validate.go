// Package validate reproduces the paper's §VI-B validation protocol: add
// C/R code for the AutoCheck-detected variables (via the FTI-like
// checkpoint substrate), raise a fail-stop failure inside the main
// computation loop, restart from the latest checkpoint, and check that the
// restarted execution matches a failure-free execution. It also runs the
// false-positive check: dropping each detected variable from the protected
// set one at a time must break at least one restart scenario.
//
// One strengthening over the paper: besides comparing printed output, the
// harness compares the final memory state of the checkpointed variables.
// The paper's benchmarks print verification values that summarize that
// state; comparing it directly keeps small kernels honest even when their
// printed output happens to be recomputable.
//
// Every run of the protocol goes through one driver (loop.go): FindLoop
// resolves the main loop once, Loop.Run numbers its boundaries, and
// Capture reads the critical cells. The storage runs and the chaos sweep
// in internal/harness drive the same loop.
package validate

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/store"
)

// Options selects how validation checkpoints are persisted. The zero
// value reproduces the paper's setup: L1 checkpoints through the plain
// file backend.
type Options struct {
	Level checkpoint.Level // 0 means L1
	Store store.Config     // Dir is overridden per failure scenario
}

// Report is the outcome of a validation run.
type Report struct {
	Iterations        int64 // main-loop iterations in a failure-free run
	FailPoints        []int64
	Sufficient        bool            // all restarts matched the reference
	Necessary         map[string]bool // variable -> dropping it broke a restart
	CheckpointBytes   int64           // size of one AutoCheck checkpoint image
	StoreBytes        int64           // bytes the backend persisted across one fail run
	FullSnapshotBytes int64           // size of the BLCR-like full snapshot
	Checkpoints       int             // checkpoints written in the fail-end run
	Mismatch          string          // first mismatch description, if any
}

// Validator runs the protocol for one program.
type Validator struct {
	loop *Loop
	res  *core.Result
	dir  string // scratch directory for checkpoint files
	opts Options
}

// New prepares a validator whose checkpoints go through the given storage
// configuration and reliability level (the zero Options: L1 over the file
// backend, the paper's setup). res must come from analyzing the same
// module's trace.
func New(mod *ir.Module, res *core.Result, dir string, opts Options) (*Validator, error) {
	loop, err := FindLoop(mod, res.Spec)
	if err != nil {
		return nil, err
	}
	if opts.Level == 0 {
		opts.Level = checkpoint.L1
	}
	return &Validator{loop: loop, res: res, dir: dir, opts: opts}, nil
}

// final drives one run and returns its end state. Compare printed output
// plus the final state of the critical variables. Non-critical MLI
// variables are deliberately excluded: they are either recomputed by the
// surviving iterations or dead after the loop (that is exactly why
// AutoCheck does not checkpoint them), so their cells may legitimately
// differ after a loop-exit restart.
func (v *Validator) final(at func(m *interp.Machine, iter int64) error) (State, error) {
	m, out, err := v.loop.Run(at)
	if err != nil {
		return State{}, err
	}
	return State{Output: out, Cells: Capture(m, v.res.Critical)}, nil
}

// reference runs failure-free, returning the reference state and the
// iteration count.
func (v *Validator) reference() (State, int64, error) {
	var iters int64
	ref, err := v.final(func(_ *interp.Machine, iter int64) error {
		iters = iter
		return nil
	})
	if err != nil {
		return State{}, 0, fmt.Errorf("validate: reference run failed: %w", err)
	}
	return ref, iters, nil
}

// runWithFailure executes with checkpointing every iteration and a
// fail-stop after failAt completed iterations. It returns the BLCR-like
// snapshot size at the failure point.
func (v *Validator) runWithFailure(ctx *checkpoint.Context, failAt int64) (int64, error) {
	var snapBytes int64
	_, _, err := v.loop.Run(func(m *interp.Machine, iter int64) error {
		if iter >= 1 {
			if err := ctx.Checkpoint(m, iter); err != nil {
				return err
			}
		}
		if iter == failAt {
			snapBytes = int64(len(checkpoint.FullSnapshot(m, iter)))
			return interp.ErrFailStop
		}
		return nil
	})
	if !errors.Is(err, interp.ErrFailStop) {
		return 0, fmt.Errorf("validate: expected injected fail-stop, got %v", err)
	}
	return snapBytes, nil
}

// restart re-executes the program, recovering the protected variables
// (minus skip) at loop entry — the paper's "reading checkpoints right
// before the main computation loop".
func (v *Validator) restart(ctx *checkpoint.Context, skip map[string]bool) (State, error) {
	got, err := v.final(func(m *interp.Machine, iter int64) error {
		if iter == 0 {
			_, err := ctx.Restart(m, skip)
			return err
		}
		return nil
	})
	if err != nil {
		return State{}, fmt.Errorf("validate: restart run failed: %w", err)
	}
	return got, nil
}

func describeMismatch(ref, got State) string {
	if ref.Output != got.Output {
		return fmt.Sprintf("output mismatch: reference %q vs restart %q", ref.Output, got.Output)
	}
	for name, want := range ref.Cells {
		if !reflect.DeepEqual(want, got.Cells[name]) {
			return fmt.Sprintf("final state of %s differs", name)
		}
	}
	return ""
}

// Run executes the full protocol: sufficiency at a mid-loop and an
// end-of-loop failure point, then per-variable necessity.
func (v *Validator) Run() (*Report, error) {
	ref, iters, err := v.reference()
	if err != nil {
		return nil, err
	}
	if iters < 2 {
		return nil, fmt.Errorf("validate: main loop ran only %d iterations; need at least 2", iters)
	}
	rep := &Report{
		Iterations: iters,
		FailPoints: []int64{(iters + 1) / 2, iters},
		Necessary:  make(map[string]bool),
		Sufficient: true,
	}
	var ctxs []*checkpoint.Context
	defer func() {
		// Release backend resources (async writer goroutines, queued
		// writes) once the necessity loop is done with the contexts.
		for _, ctx := range ctxs {
			ctx.Close()
		}
	}()
	for i, failAt := range rep.FailPoints {
		cfg := v.opts.Store
		cfg.Dir = filepath.Join(v.dir, fmt.Sprintf("fail%d", i))
		ctx, err := checkpoint.NewContextStore(cfg, v.opts.Level)
		if err != nil {
			return nil, err
		}
		ctxs = append(ctxs, ctx)
		for _, c := range v.res.Critical {
			ctx.Protect(c.Name, c.Base, c.SizeBytes)
		}
		snapBytes, err := v.runWithFailure(ctx, failAt)
		if err != nil {
			return nil, err
		}
		if err := ctx.Flush(); err != nil {
			return nil, fmt.Errorf("validate: checkpoint flush: %w", err)
		}
		rep.CheckpointBytes = ctx.LastBytes()
		rep.StoreBytes = ctx.StoreStats().BytesWritten
		rep.FullSnapshotBytes = snapBytes
		rep.Checkpoints = ctx.Count()
		got, err := v.restart(ctx, nil)
		if err != nil {
			return nil, err
		}
		if msg := describeMismatch(ref, got); msg != "" {
			rep.Sufficient = false
			if rep.Mismatch == "" {
				rep.Mismatch = fmt.Sprintf("failAt=%d: %s", failAt, msg)
			}
		}
	}
	// False-positive check (§VI-B): drop one variable at a time.
	for _, c := range v.res.Critical {
		necessary := false
		for _, ctx := range ctxs {
			got, err := v.restart(ctx, map[string]bool{c.Name: true})
			// A crash during restart also proves necessity.
			if err != nil || describeMismatch(ref, got) != "" {
				necessary = true
				break
			}
		}
		rep.Necessary[c.Name] = necessary
	}
	return rep, nil
}
