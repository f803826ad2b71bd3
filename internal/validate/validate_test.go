package validate

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"testing"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/server"
	"autocheck/internal/store"
)

const fig4Source = `
void foo(int *p, int *q) {
  for (int i = 0; i < 10; ++i) {
    q[i] = p[i] * 2;
  }
}
int main() {
  int a[10];
  int b[10];
  int sum = 0;
  int s = 0;
  int r = 1;
  for (int i = 0; i < 10; ++i) {
    a[i] = 0;
    b[i] = 0;
  }
  for (int it = 0; it < 10; ++it) {
    int m;
    s = it + 1;
    a[it] = s * r;
    foo(a, b);
    r++;
    m = a[it] + b[it];
    sum = m;
  }
  print(sum);
  return 0;
}`

func analyzed(t *testing.T, src string, spec core.LoopSpec) (*ir.Module, *core.Result) {
	t.Helper()
	mod, err := interp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := interp.TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Module = mod
	res, err := core.Analyze(recs, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mod, res
}

// TestFig4Validation reproduces §VI-B on the example code: with the
// AutoCheck-detected variables (r, a, sum, it) checkpointed, every restart
// matches the failure-free run, and no detected variable is a false
// positive.
func TestFig4Validation(t *testing.T) {
	mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
	v, err := New(mod, res, t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 10 {
		t.Errorf("Iterations = %d, want 10", rep.Iterations)
	}
	if !rep.Sufficient {
		t.Errorf("restart with detected variables failed: %s", rep.Mismatch)
	}
	for _, c := range res.Critical {
		if !rep.Necessary[c.Name] {
			t.Errorf("variable %s (%s) reported unnecessary (false positive)", c.Name, c.Type)
		}
	}
	if rep.CheckpointBytes <= 0 {
		t.Error("checkpoint size not measured")
	}
	if rep.FullSnapshotBytes <= rep.CheckpointBytes {
		t.Errorf("full snapshot (%d B) should exceed AutoCheck checkpoint (%d B)",
			rep.FullSnapshotBytes, rep.CheckpointBytes)
	}
}

// TestInsufficientSetDetected: dropping a WAR variable from the protected
// set must be caught as insufficient.
func TestInsufficientSetDetected(t *testing.T) {
	mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
	// Remove 'r' (WAR) from the critical set before validating.
	var pruned []core.CriticalVar
	for _, c := range res.Critical {
		if c.Name != "r" {
			pruned = append(pruned, c)
		}
	}
	res.Critical = pruned
	v, err := New(mod, res, t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sufficient {
		t.Error("restart without the WAR variable r should not match the reference")
	}
}

// A float stencil with an Outcome variable and a RAPO array, exercising
// the checkpoint of float cells.
const stencilSource = `
int main() {
  float u[16];
  float unew[16];
  float resid = 0.0;
  for (int i = 0; i < 16; i++) {
    u[i] = i * i;
    unew[i] = 0.0;
  }
  for (int step = 0; step < 8; step++) {
    for (int i = 1; i < 15; i++) {
      unew[i] = (u[i-1] + u[i+1]) / 2.0;
    }
    resid = 0.0;
    for (int i = 1; i < 15; i++) {
      float d = unew[i] - u[i];
      resid += d * d;
      u[i] = unew[i];
    }
  }
  print(resid, u[7]);
  return 0;
}`

func TestStencilValidation(t *testing.T) {
	mod, res := analyzed(t, stencilSource, core.LoopSpec{Function: "main", StartLine: 10, EndLine: 19})
	if res.Find("u") == nil {
		t.Fatalf("u should be critical; got %v", res.CriticalNames())
	}
	v, err := New(mod, res, t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sufficient {
		t.Errorf("stencil restart failed: %s", rep.Mismatch)
	}
	if !rep.Necessary["u"] {
		t.Error("u should be necessary")
	}
}

// The §VI-B protocol must hold unchanged across every storage backend
// and write-path decorator — network and cache tiers included: same
// sufficiency, same necessity verdicts. The remote cases run against a
// live checkpoint service (httptest); each failure scenario's scratch
// dir maps to its own service namespace, so scenarios stay disjoint the
// same way they do on disk.
func TestFig4ValidationAcrossStoreBackends(t *testing.T) {
	mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
	svc := server.NewWithFactory(server.Config{}, func(ns string) (store.Backend, error) {
		return store.NewMemory(), nil
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	for name, opts := range map[string]Options{
		"memory":           {Store: store.Config{Kind: store.KindMemory}},
		"file-async":       {Store: store.Config{Kind: store.KindFile, Async: true}},
		"file-incremental": {Store: store.Config{Kind: store.KindFile, Incremental: true, Keyframe: 4}},
		"file-async-incremental-L2": {
			Level: checkpoint.L2,
			Store: store.Config{Kind: store.KindFile, Async: true, Incremental: true, Keyframe: 4},
		},
		"file-cached": {Store: store.Config{Kind: store.KindFile, CacheMB: 4}},
		"remote":      {Store: store.Config{Kind: store.KindRemote, Addr: ts.URL}},
		"remote-cached-incremental": {
			Store: store.Config{Kind: store.KindRemote, Addr: ts.URL, CacheMB: 4, Incremental: true, Keyframe: 4},
		},
		"remote-L2": {
			Level: checkpoint.L2,
			Store: store.Config{Kind: store.KindRemote, Addr: ts.URL, CacheMB: 2},
		},
	} {
		t.Run(name, func(t *testing.T) {
			v, err := New(mod, res, t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := v.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Sufficient {
				t.Errorf("restart failed: %s", rep.Mismatch)
			}
			for _, c := range res.Critical {
				if !rep.Necessary[c.Name] {
					t.Errorf("variable %s reported unnecessary", c.Name)
				}
			}
			if rep.StoreBytes <= 0 {
				t.Error("backend byte accounting missing")
			}
			// No byte-reduction assertion here: fig4's critical variables
			// all change every iteration, so deltas degenerate to full
			// sections plus framing. The reduction claim is benchmarked on
			// programs with stable sections (harness.MeasureStorageRun on
			// IS, and TestIncrementalWritesFewerBytes in internal/store).
		})
	}
}

// haloSource is an SPMD diffusion kernel: each rank owns u[10] with ghost
// cells at u[0] and u[9], refreshed by barrier exchanges. Ranks initialize
// differently via myrank(). Main loop: lines 10-17.
const haloSource = `
float u[10];
float tmp[10];
int main() {
  int rank = myrank();
  for (int i = 0; i < 10; i++) {
    u[i] = rank * 10 + i;
    tmp[i] = 0.0;
  }
  for (int step = 0; step < 6; step++) {
    for (int i = 1; i < 9; i++) {
      tmp[i] = (u[i - 1] + u[i + 1]) * 0.5;
    }
    for (int i = 1; i < 9; i++) {
      u[i] = u[i] * 0.5 + tmp[i] * 0.5;
    }
  }
  print(rank, u[2], u[7]);
  return 0;
}`

var haloSpec = core.LoopSpec{Function: "main", StartLine: 10, EndLine: 17}

// haloExchanges wires two ranks: rank 0's last interior cell feeds rank
// 1's left ghost and vice versa (an MPI_Sendrecv halo swap).
var haloExchanges = []Exchange{
	{SrcRank: 0, SrcVar: "u", SrcOff: 8, DstRank: 1, DstVar: "u", DstOff: 0, Cells: 1},
	{SrcRank: 1, SrcVar: "u", SrcOff: 1, DstRank: 0, DstVar: "u", DstOff: 9, Cells: 1},
}

// TestValidatorErrors: a spec that names no function, or a line range
// with no loop in it, fails when the loop is resolved — by FindLoop and
// by New, which resolves it the same way — and so does a world of no
// ranks, an exchange naming a rank outside it, or critical sets that do
// not match its ranks. An exchange naming no global fails the run at its
// first barrier.
func TestValidatorErrors(t *testing.T) {
	mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
	for name, spec := range map[string]core.LoopSpec{
		"unknown function": {Function: "nosuch", StartLine: 17, EndLine: 25},
		"no loop in range": {Function: "main", StartLine: 2, EndLine: 3},
	} {
		if _, err := FindLoop(mod, spec); err == nil {
			t.Errorf("FindLoop with %s should fail", name)
		}
		if _, err := FindWorld(mod, spec, 2, nil); err == nil {
			t.Errorf("FindWorld of 2 ranks with %s should fail", name)
		}
		bad := *res
		bad.Spec = spec
		if _, err := New(mod, &bad, t.TempDir(), Options{}); err == nil {
			t.Errorf("New with %s should fail", name)
		}
	}

	halo, err := interp.Compile(haloSource)
	if err != nil {
		t.Fatal(err)
	}
	for name, world := range map[string]struct {
		ranks     int
		exchanges []Exchange
	}{
		"zero ranks":             {0, nil},
		"out-of-range exchange":  {2, []Exchange{{SrcRank: 5, DstRank: 0, SrcVar: "u", DstVar: "u", Cells: 1}}},
		"negative exchange rank": {2, []Exchange{{SrcRank: 0, DstRank: -1, SrcVar: "u", DstVar: "u", Cells: 1}}},
		"exchange past one rank": {1, haloExchanges},
	} {
		if _, err := FindWorld(halo, haloSpec, world.ranks, world.exchanges); err == nil {
			t.Errorf("FindWorld with %s accepted", name)
		}
	}
	loop, err := FindWorld(halo, haloSpec, 2, []Exchange{{SrcRank: 0, DstRank: 1, SrcVar: "nope", DstVar: "u", Cells: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loop.Run(func([]*interp.Machine, int64) error { return nil }); err == nil {
		t.Error("unknown exchange variable did not fail")
	}
	if _, err := Record(loop, [][]core.CriticalVar{nil}); err == nil {
		t.Error("Record of 2 ranks with 1 critical set accepted")
	}
	f := FailStop{Loop: loop, Critical: [][]core.CriticalVar{nil}, Store: store.Config{Kind: store.KindMemory}, Level: checkpoint.L1}
	if _, err := f.Run(0, nil); err == nil {
		t.Error("FailStop of 2 ranks with 1 critical set accepted")
	}
}

// TestLoopRunContract pins the driver every §VI-B run goes through. On
// the Fig. 4 program (one rank), at sees iter 0..N in order, with N the
// iteration count the validator reports. On the halo world (two ranks),
// at sees every rank stopped at the same barrier, and the exchanges
// couple the ranks. Either way an error from at ends Run and is
// returned, and an injected crash inside at unwinds through Run with
// every rank ended.
func TestLoopRunContract(t *testing.T) {
	stopsAtError := func(t *testing.T, loop *Loop) {
		stop := errors.New("stop")
		var last int64
		if _, _, err := loop.Run(func(_ []*interp.Machine, iter int64) error {
			last = iter
			if iter == 3 {
				return stop
			}
			return nil
		}); !errors.Is(err, stop) {
			t.Errorf("Run returned %v, want the error from at", err)
		}
		if last != 3 {
			t.Errorf("at ran on to iter %d after its error at 3", last)
		}

		baseline := runtime.NumGoroutine()
		faults := faultinject.NewRegistry(1)
		faults.Arm(faultinject.Failpoint{Site: "test.at", Action: faultinject.ActionCrash, Nth: 3})
		err := Guard(func() error {
			_, _, err := loop.Run(func([]*interp.Machine, int64) error { return faults.Hit("test.at") })
			return err
		})
		var crash *faultinject.Crash
		if !errors.As(err, &crash) {
			t.Errorf("Guard returned %v, want the crash injected inside at", err)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%d goroutines after the crash, %d before: a rank outlived Run", n, baseline)
		}
	}

	t.Run("ranks=1", func(t *testing.T) {
		mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
		loop, err := FindLoop(mod, res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		var seen []int64
		if _, outs, err := loop.Run(func(ms []*interp.Machine, iter int64) error {
			if len(ms) != 1 {
				t.Fatalf("at saw %d machines, want 1", len(ms))
			}
			seen = append(seen, iter)
			return nil
		}); err != nil || len(outs) != 1 || outs[0] == "" {
			t.Fatalf("failure-free run: outs=%q err=%v", outs, err)
		}
		v, err := New(mod, res, t.TempDir(), Options{Store: store.Config{Kind: store.KindMemory}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(seen)) != rep.Iterations+1 {
			t.Fatalf("at saw %v, want 0..%d", seen, rep.Iterations)
		}
		for i, iter := range seen {
			if iter != int64(i) {
				t.Fatalf("at saw %v, want 0..%d in order", seen, rep.Iterations)
			}
		}
		stopsAtError(t, loop)
	})

	t.Run("ranks=2", func(t *testing.T) {
		mod, err := interp.Compile(haloSource)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := FindWorld(mod, haloSpec, 2, haloExchanges)
		if err != nil {
			t.Fatal(err)
		}
		var seen []int64
		_, coupled, err := loop.Run(func(ms []*interp.Machine, iter int64) error {
			seen = append(seen, iter)
			// The ranks run the same instructions between barriers, so in
			// lockstep they have run the same number at every barrier.
			if len(ms) != 2 || ms[0].Steps != ms[1].Steps || ms[0].Rank != 0 || ms[1].Rank != 1 {
				t.Fatalf("barrier %d: ranks not in lockstep", iter)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// 6 iterations: 7 header entries (the last evaluates the exit).
		if len(seen) != 7 || seen[6] != 6 {
			t.Errorf("at saw %v, want 0..6", seen)
		}
		if len(coupled) != 2 || coupled[0] == "" || coupled[0] == coupled[1] {
			t.Fatalf("outputs = %q; want one per rank, different (different init)", coupled)
		}
		// Without the exchanges the ghost cells keep their initial values
		// instead of the neighbor's halo, and rank 0 evolves differently.
		lone, err := FindWorld(mod, haloSpec, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, uncoupled, err := lone.Run(func([]*interp.Machine, int64) error { return nil }); err != nil || uncoupled[0] == coupled[0] {
			t.Errorf("halo exchange had no observable effect on rank 0 (%v)", err)
		}
		stopsAtError(t, loop)
	})
}
