package validate

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
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

// TestValidatorErrors: a spec that names no function, or a line range
// with no loop in it, fails when the loop is resolved — by FindLoop and
// by New, which resolves it the same way.
func TestValidatorErrors(t *testing.T) {
	mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
	for name, spec := range map[string]core.LoopSpec{
		"unknown function": {Function: "nosuch", StartLine: 17, EndLine: 25},
		"no loop in range": {Function: "main", StartLine: 2, EndLine: 3},
	} {
		if _, err := FindLoop(mod, spec); err == nil {
			t.Errorf("FindLoop with %s should fail", name)
		}
		bad := *res
		bad.Spec = spec
		if _, err := New(mod, &bad, t.TempDir(), Options{}); err == nil {
			t.Errorf("New with %s should fail", name)
		}
	}
}

// TestLoopRunContract pins the driver every §VI-B run goes through, on
// the Fig. 4 program: at sees iter 0..N in order, with N the iteration
// count the validator reports, and an error from at ends Run and is
// returned.
func TestLoopRunContract(t *testing.T) {
	mod, res := analyzed(t, fig4Source, core.LoopSpec{Function: "main", StartLine: 17, EndLine: 25})
	loop, err := FindLoop(mod, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int64
	if _, out, err := loop.Run(func(_ *interp.Machine, iter int64) error {
		seen = append(seen, iter)
		return nil
	}); err != nil || out == "" {
		t.Fatalf("failure-free run: out=%q err=%v", out, err)
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

	stop := errors.New("stop")
	var last int64
	if _, _, err := loop.Run(func(_ *interp.Machine, iter int64) error {
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
}
