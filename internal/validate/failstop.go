package validate

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// FailStop is the §VI-B protocol for one program over one storage stack,
// run by one rank or by many: checkpoint every rank's critical set at
// every main-loop boundary until the run dies (Run), restart every rank
// at loop entry from what the stores kept (Recover), and check the
// restarted run against the failure-free Reference (Recovery.Check). The
// Validator, Table IV's and the storage runs' measurements, the chaos
// sweep and the BSP world of §VII are its callers.
//
// A run dies at a fail-stop after checkpoint k, or where a schedule armed
// on Store.Faults kills it: an injected error, or an injected
// *faultinject.Crash, which is process death. The ranks share the one
// registry, so a schedule can kill the run between two ranks' Puts. The
// durable kinds restart through a fresh Context over the surviving
// medium. The memory kind is volatile, so nothing of it outlives a
// process: its scenario is the in-process restart, in which the store
// outlives the failed run, and one Context per rank serves both the run
// and its restarts. One rank uses Store as it is; rank r of many appends
// "rank<r>" to its Dir and, when set, to its Namespace.
type FailStop struct {
	Loop     *Loop
	Critical [][]core.CriticalVar // one critical set per rank
	Store    store.Config
	Level    checkpoint.Level
	Retain   int // retention policy of every rank's checkpointing (0: keep all); over many ranks each keeps one more

	shared []*checkpoint.Context // the memory kind's Contexts; copy a FailStop only before its Run
}

// NewFailStop sets the protocol up for an analyzed module, run by one
// rank, over one storage stack.
func NewFailStop(mod *ir.Module, res *core.Result, scfg store.Config, level checkpoint.Level) (*FailStop, error) {
	loop, err := FindLoop(mod, res.Spec)
	if err != nil {
		return nil, err
	}
	return &FailStop{Loop: loop, Critical: [][]core.CriticalVar{res.Critical}, Store: scfg, Level: level}, nil
}

// Death is how a FailStop run ended, with rank 0's checkpointing
// accounting after its final Flush.
type Death struct {
	Committed  int   // Checkpoint calls that returned nil, over every rank
	Err        error // what ended the run early: interp.ErrFailStop, an error, or a *faultinject.Crash
	FlushErr   error // the first failed Flush of a rank's surviving writes
	LastBytes  int64
	TotalBytes int64
	Stats      store.Stats
}

// Run executes the program, checkpointing every rank's critical set, in
// rank order, at every boundary k ≥ 1 until the run dies: a fail-stop
// right after checkpoint failAfter (0: never), an error on the
// checkpointing path, or an injected crash. at, when not nil, sees each
// rank's machine after its checkpoint. The returned error is only for a
// Context that would not open.
func (f *FailStop) Run(failAfter int64, at func(m *interp.Machine, iter int64)) (*Death, error) {
	ctxs, err := f.open()
	if err != nil {
		return nil, err
	}
	d := &Death{}
	d.Err = Guard(func() error {
		_, _, err := f.Loop.Run(func(ms []*interp.Machine, iter int64) error {
			if iter < 1 {
				return nil
			}
			for r, m := range ms {
				if err := ctxs[r].Checkpoint(m, iter); err != nil {
					return err
				}
				d.Committed++
				if at != nil {
					at(m, iter)
				}
			}
			if iter == failAfter {
				return interp.ErrFailStop
			}
			return nil
		})
		return err
	})
	for _, ctx := range ctxs {
		if err := ctx.Flush(); d.FlushErr == nil {
			d.FlushErr = err
		}
	}
	d.LastBytes, d.TotalBytes, d.Stats = ctxs[0].LastBytes(), ctxs[0].TotalBytes(), ctxs[0].StoreStats()
	f.release(ctxs)
	return d, nil
}

// Recovery is a restarted run: the iteration of the recovery line it
// restarted at, and per rank the cells it restored at loop entry (the
// skipped variables aside) and the state it ended in.
type Recovery struct {
	Iter     int64
	Restored []map[string][]trace.Value
	Final    []State
	Err      error // the restart or the re-run failed; a *faultinject.Crash if one killed it
}

// Recover re-executes the program through a Context per rank over the
// stores the run left, restoring every rank's critical variables not in
// skip at loop entry — the paper's "reading checkpoints right before the
// main computation loop" — and running on to the end. Every rank
// restores the recovery line: the newest iteration at which every rank
// has a valid checkpoint. Without one Recover fails with
// checkpoint.ErrNoCheckpoint. Over many ranks each keeps a checkpoint more
// than Retain asks, so a death between two ranks' Puts, which leaves some
// ranks one iteration ahead of the line, has pruned nothing at or above it.
func (f *FailStop) Recover(skip map[string]bool) *Recovery {
	rec := &Recovery{}
	rec.Err = Guard(func() error {
		ctxs, err := f.open()
		if err != nil {
			return err
		}
		defer f.release(ctxs)
		ms, outs, err := f.Loop.Run(func(ms []*interp.Machine, iter int64) error {
			if iter != 0 {
				return nil
			}
			var err error
			if rec.Iter, err = restartLine(ctxs, ms, skip); err != nil {
				return err
			}
			rec.Restored = capture(ms, f.Critical, skip)
			return nil
		})
		if err == nil {
			rec.Final = finalStates(ms, outs, f.Critical)
		}
		return err
	})
	return rec
}

// restartLine restores every rank at the recovery line and returns it: a
// fixpoint in which each pass restores every rank's newest valid
// checkpoint no later than the line so far and lowers the line to the
// oldest of them, until a pass restores one iteration everywhere. A rank
// restored again is overwritten whole: its protected sections are fixed.
func restartLine(ctxs []*checkpoint.Context, ms []*interp.Machine, skip map[string]bool) (int64, error) {
	line := int64(math.MaxInt64)
	for {
		newest := int64(math.MinInt64)
		for r, m := range ms {
			k, err := ctxs[r].RestartAt(m, skip, line)
			if err != nil {
				return 0, err
			}
			line, newest = min(line, k), max(newest, k)
		}
		if newest == line {
			return line, nil
		}
	}
}

// Check returns "" when a successful recovery is one the failure-free
// run allows: it recovered an iteration the reference passed through,
// and every rank restored exactly the cells the reference held there and
// converged to the reference's output and final critical cells.
// Otherwise it describes the first check that failed. Non-critical
// variables are deliberately not compared: they are either recomputed by
// the surviving iterations or dead after the loop, which is why they are
// not checkpointed.
func (r *Recovery) Check(ref *Reference) string {
	want, ok := ref.Cells[r.Iter]
	if !ok {
		return fmt.Sprintf("restart recovered impossible iteration %d (run had %d)", r.Iter, ref.Iterations)
	}
	for rank, final := range ref.Final {
		for name, got := range r.Restored[rank] {
			if !reflect.DeepEqual(got, want[rank][name]) {
				return fmt.Sprintf("rank %d: restored %s at iteration %d differs from the failure-free run (silent corruption)", rank, name, r.Iter)
			}
		}
		if final.Output != r.Final[rank].Output {
			return fmt.Sprintf("rank %d: output diverged after restart at iteration %d: reference %q vs restart %q", rank, r.Iter, final.Output, r.Final[rank].Output)
		}
		for name, want := range final.Cells {
			if !reflect.DeepEqual(want, r.Final[rank].Cells[name]) {
				return fmt.Sprintf("rank %d: final state of %s diverged after restart at iteration %d", rank, name, r.Iter)
			}
		}
	}
	return ""
}

// Close releases the memory kind's Contexts.
func (f *FailStop) Close() {
	for _, ctx := range f.shared {
		ctx.Close()
	}
	f.shared = nil
}

// open returns a Context per rank over the rank's stack with its critical
// set protected: fresh ones over the medium for the durable kinds, the
// shared ones for the memory kind.
func (f *FailStop) open() ([]*checkpoint.Context, error) {
	if f.shared != nil {
		return f.shared, nil
	}
	if err := f.Loop.perRank(f.Critical); err != nil {
		return nil, err
	}
	ctxs := make([]*checkpoint.Context, 0, len(f.Critical))
	for r, critical := range f.Critical {
		scfg := f.Store
		if len(f.Critical) > 1 {
			rank := fmt.Sprintf("rank%d", r)
			scfg.Dir = filepath.Join(scfg.Dir, rank)
			if scfg.Namespace != "" {
				scfg.Namespace += "-" + rank
			}
		}
		ctx, err := checkpoint.NewContextStore(scfg, f.Level)
		if err != nil {
			f.release(ctxs)
			return nil, err
		}
		for _, c := range critical {
			ctx.Protect(c.Name, c.Base, c.SizeBytes)
		}
		if len(f.Critical) > 1 && f.Retain > 0 {
			ctx.Retain(f.Retain + 1)
		} else {
			ctx.Retain(f.Retain)
		}
		ctxs = append(ctxs, ctx)
	}
	if f.Store.Kind == store.KindMemory {
		f.shared = ctxs
	}
	return ctxs, nil
}

// release closes a durable kind's Contexts; the memory kind's stay open
// until Close.
func (f *FailStop) release(ctxs []*checkpoint.Context) {
	if f.shared == nil {
		for _, ctx := range ctxs {
			ctx.Close()
		}
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
