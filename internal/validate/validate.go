// Package validate reproduces the paper's §VI-B validation protocol: add
// C/R code for the AutoCheck-detected variables (via the FTI-like
// checkpoint substrate), raise a fail-stop failure inside the main
// computation loop, restart from the latest checkpoint, and check that the
// restarted execution matches a failure-free execution. It also runs the
// false-positive check: dropping each detected variable from the protected
// set one at a time must break at least one restart scenario.
//
// Two strengthenings over the paper: besides comparing printed output,
// the harness compares the final memory state of the checkpointed
// variables, and it checks the restart itself — the recovered iteration
// is one the failure-free run passed through, and the restored cells are
// the ones that run held there. The paper's benchmarks print verification
// values that summarize the state; comparing it directly keeps small
// kernels honest even when their printed output happens to be
// recomputable.
//
// The protocol exists once, as FailStop (failstop.go), for one rank and
// for many, over one loop driver (loop.go): FindLoop, or FindWorld for
// ranks in BSP lockstep with barrier exchanges, resolves the main loop;
// Loop.Run runs every rank to each boundary and numbers it; Record keeps
// the failure-free trajectory a restart is checked against. Every rank
// restarts at one recovery line, the newest barrier every rank
// checkpointed (§VII: synchronous checkpoints rule out the Domino effect
// only if the ranks restart together).
package validate

import (
	"errors"
	"fmt"
	"path/filepath"

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
	fs  FailStop // over opts' stack; each fail point gets its own Dir
	dir string   // scratch directory for checkpoint files
}

// New prepares a validator whose checkpoints go through the given storage
// configuration and reliability level (the zero Options: L1 over the file
// backend, the paper's setup). res must come from analyzing the same
// module's trace.
func New(mod *ir.Module, res *core.Result, dir string, opts Options) (*Validator, error) {
	if opts.Level == 0 {
		opts.Level = checkpoint.L1
	}
	fs, err := NewFailStop(mod, res, opts.Store, opts.Level)
	if err != nil {
		return nil, err
	}
	return &Validator{fs: *fs, dir: dir}, nil
}

// Run executes the full protocol: sufficiency at a mid-loop and an
// end-of-loop failure point, then per-variable necessity. A restart is
// sufficient when it passes Recovery.Check: it recovered an iteration
// the failure-free run passed through, restored the cells that run held
// there, and converged to its output and final critical cells.
func (v *Validator) Run() (*Report, error) {
	ref, err := Record(v.fs.Loop, v.fs.Critical)
	if err != nil {
		return nil, err
	}
	iters := ref.Iterations
	rep := &Report{
		Iterations: iters,
		FailPoints: []int64{(iters + 1) / 2, iters},
		Necessary:  make(map[string]bool),
		Sufficient: true,
	}
	var runs []*FailStop
	defer func() {
		for _, f := range runs {
			f.Close()
		}
	}()
	for i, failAt := range rep.FailPoints {
		f := v.fs
		f.Store.Dir = filepath.Join(v.dir, fmt.Sprintf("fail%d", i))
		runs = append(runs, &f)
		d, err := f.Run(failAt, func(m *interp.Machine, iter int64) {
			if iter == failAt {
				rep.FullSnapshotBytes = int64(len(checkpoint.FullSnapshot(m, iter)))
			}
		})
		if err != nil {
			return nil, err
		}
		if !errors.Is(d.Err, interp.ErrFailStop) {
			return nil, fmt.Errorf("validate: expected injected fail-stop, got %v", d.Err)
		}
		if d.FlushErr != nil {
			return nil, fmt.Errorf("validate: checkpoint flush: %w", d.FlushErr)
		}
		rep.CheckpointBytes = d.LastBytes
		rep.StoreBytes = d.Stats.BytesWritten
		rep.Checkpoints = d.Committed
		rec := f.Recover(nil)
		if rec.Err != nil {
			return nil, fmt.Errorf("validate: restart run failed: %w", rec.Err)
		}
		if msg := rec.Check(ref); msg != "" {
			rep.Sufficient = false
			if rep.Mismatch == "" {
				rep.Mismatch = fmt.Sprintf("failAt=%d: %s", failAt, msg)
			}
		}
	}
	// False-positive check (§VI-B): drop one variable at a time.
	for _, c := range v.fs.Critical[0] {
		necessary := false
		for _, f := range runs {
			// A crash during restart also proves necessity.
			if rec := f.Recover(map[string]bool{c.Name: true}); rec.Err != nil || rec.Check(ref) != "" {
				necessary = true
				break
			}
		}
		rep.Necessary[c.Name] = necessary
	}
	return rep, nil
}
