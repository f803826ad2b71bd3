package validate

import (
	"fmt"
	"reflect"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// FailStop is the §VI-B protocol for one program over one storage stack:
// checkpoint the critical set at every main-loop boundary until the run
// dies (Run), restart at loop entry from what the store kept (Recover),
// and check the restarted run against the failure-free Reference
// (Recovery.Check). The Validator, Table IV's and the storage runs'
// measurements and the chaos sweep are its callers.
//
// A run dies at a fail-stop after checkpoint k, or where a schedule armed
// on Store.Faults kills it: an injected error, or an injected
// *faultinject.Crash, which is process death. The durable kinds restart
// through a fresh Context over the surviving medium. The memory kind is
// volatile, so nothing of it outlives a process: its scenario is the
// in-process restart, in which the store outlives the failed run, and one
// Context, the store's handle, serves both the run and its restarts.
type FailStop struct {
	Loop     *Loop
	Critical []core.CriticalVar
	Store    store.Config
	Level    checkpoint.Level
	Retain   int // retention policy of the checkpointing run (0: keep all)

	shared *checkpoint.Context // the memory kind's one Context; copy a FailStop only before its Run
}

// NewFailStop sets the protocol up for an analyzed module over one
// storage stack.
func NewFailStop(mod *ir.Module, res *core.Result, scfg store.Config, level checkpoint.Level) (*FailStop, error) {
	loop, err := FindLoop(mod, res.Spec)
	if err != nil {
		return nil, err
	}
	return &FailStop{Loop: loop, Critical: res.Critical, Store: scfg, Level: level}, nil
}

// Death is how a FailStop run ended, with the checkpointing Context's
// accounting after its final Flush.
type Death struct {
	Committed  int   // Checkpoint calls that returned nil
	Err        error // what ended the run early: interp.ErrFailStop, an error, or a *faultinject.Crash
	FlushErr   error // the final Flush of the surviving writes
	LastBytes  int64
	TotalBytes int64
	Stats      store.Stats
}

// Run executes the program, checkpointing the critical set at every
// boundary k ≥ 1 until the run dies: a fail-stop right after checkpoint
// failAfter (0: never), an error on the checkpointing path, or an
// injected crash. at, when not nil, sees the machine after each
// checkpoint. The returned error is only for a Context that would not
// open.
func (f *FailStop) Run(failAfter int64, at func(m *interp.Machine, iter int64)) (*Death, error) {
	ctx, err := f.open()
	if err != nil {
		return nil, err
	}
	d := &Death{}
	d.Err = Guard(func() error {
		_, _, err := f.Loop.Run(func(m *interp.Machine, iter int64) error {
			if iter < 1 {
				return nil
			}
			if err := ctx.Checkpoint(m, iter); err != nil {
				return err
			}
			d.Committed++
			if at != nil {
				at(m, iter)
			}
			if iter == failAfter {
				return interp.ErrFailStop
			}
			return nil
		})
		return err
	})
	d.FlushErr = ctx.Flush()
	d.LastBytes, d.TotalBytes, d.Stats = ctx.LastBytes(), ctx.TotalBytes(), ctx.StoreStats()
	f.release(ctx)
	return d, nil
}

// Recovery is a restarted run: the iteration its checkpoint recovered,
// the cells it restored at loop entry (the skipped variables aside), and
// the state it ended in.
type Recovery struct {
	Iter     int64
	Restored map[string][]trace.Value
	Final    State
	Err      error // the restart or the re-run failed; a *faultinject.Crash if one killed it
}

// Recover re-executes the program through a Context over the store the
// run left, restoring the critical variables not in skip from the newest
// valid checkpoint at loop entry — the paper's "reading checkpoints right
// before the main computation loop" — and running on to the end.
func (f *FailStop) Recover(skip map[string]bool) *Recovery {
	rec := &Recovery{}
	rec.Err = Guard(func() error {
		ctx, err := f.open()
		if err != nil {
			return err
		}
		defer f.release(ctx)
		m, out, err := f.Loop.Run(func(m *interp.Machine, iter int64) error {
			if iter != 0 {
				return nil
			}
			var err error
			if rec.Iter, err = ctx.Restart(m, skip); err != nil {
				return err
			}
			rec.Restored = Capture(m, f.Critical)
			for name := range skip {
				delete(rec.Restored, name)
			}
			return nil
		})
		if err == nil {
			rec.Final = State{Output: out, Cells: Capture(m, f.Critical)}
		}
		return err
	})
	return rec
}

// Check returns "" when a successful recovery is one the failure-free
// run allows: it recovered an iteration the reference passed through,
// restored exactly the cells the reference held there, and converged to
// the reference's output and final critical cells. Otherwise it
// describes the first check that failed. Non-critical variables are
// deliberately not compared: they are either recomputed by the surviving
// iterations or dead after the loop, which is why they are not
// checkpointed.
func (r *Recovery) Check(ref *Reference) string {
	want, ok := ref.Cells[r.Iter]
	if !ok {
		return fmt.Sprintf("restart recovered impossible iteration %d (run had %d)", r.Iter, ref.Iterations)
	}
	for name, got := range r.Restored {
		if !reflect.DeepEqual(got, want[name]) {
			return fmt.Sprintf("restored %s at iteration %d differs from the failure-free run (silent corruption)", name, r.Iter)
		}
	}
	if r.Final.Output != ref.Final.Output {
		return fmt.Sprintf("output diverged after restart at iteration %d: reference %q vs restart %q", r.Iter, ref.Final.Output, r.Final.Output)
	}
	for name, want := range ref.Final.Cells {
		if !reflect.DeepEqual(want, r.Final.Cells[name]) {
			return fmt.Sprintf("final state of %s diverged after restart at iteration %d", name, r.Iter)
		}
	}
	return ""
}

// Close releases the memory kind's Context.
func (f *FailStop) Close() {
	if f.shared != nil {
		f.shared.Close()
		f.shared = nil
	}
}

// open returns a Context over the stack with the critical set protected:
// a fresh one over the medium for the durable kinds, the one shared
// Context for the memory kind.
func (f *FailStop) open() (*checkpoint.Context, error) {
	if f.shared != nil {
		return f.shared, nil
	}
	ctx, err := checkpoint.NewContextStore(f.Store, f.Level)
	if err != nil {
		return nil, err
	}
	for _, c := range f.Critical {
		ctx.Protect(c.Name, c.Base, c.SizeBytes)
	}
	ctx.Retain(f.Retain)
	if f.Store.Kind == store.KindMemory {
		f.shared = ctx
	}
	return ctx, nil
}

// release closes a durable kind's Context; the memory kind's stays open
// until Close.
func (f *FailStop) release(ctx *checkpoint.Context) {
	if ctx != f.shared {
		ctx.Close()
	}
}

// Guard runs fn, returning an injected crash's panic as its
// *faultinject.Crash: process death, where the process is fn. Any other
// panic propagates.
func Guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			c, ok := faultinject.AsCrash(p)
			if !ok {
				panic(p)
			}
			err = c
		}
	}()
	return fn()
}
