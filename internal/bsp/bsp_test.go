package bsp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/interp"
	"autocheck/internal/store"
	"autocheck/internal/validate"
)

// haloSource is an SPMD diffusion kernel: each rank owns u[10] with ghost
// cells at u[0] and u[9], refreshed by barrier exchanges. Ranks initialize
// differently via myrank(). Main loop: lines 8-15.
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
var haloExchanges = []validate.Exchange{
	{SrcRank: 0, SrcVar: "u", SrcOff: 8, DstRank: 1, DstVar: "u", DstOff: 0, Cells: 1},
	{SrcRank: 1, SrcVar: "u", SrcOff: 1, DstRank: 0, DstVar: "u", DstOff: 9, Cells: 1},
}

// haloWorld compiles the halo kernel, resolves its 2-rank world and
// analyzes each rank locally.
func haloWorld(t *testing.T) (*validate.Loop, [][]core.CriticalVar) {
	t.Helper()
	mod, err := interp.Compile(haloSource)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := validate.FindWorld(mod, haloSpec, 2, haloExchanges)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ParallelAnalyzeRanks(mod, 2, haloSpec, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	critical := make([][]core.CriticalVar, len(results))
	for r, res := range results {
		critical[r] = res.Critical
	}
	return loop, critical
}

// TestWorldRunsLockstep: the 2-rank halo world stops every rank at each
// of its 7 barriers (loop entry and after each of 6 iterations, the last
// evaluating the exit) and each rank prints its own output.
func TestWorldRunsLockstep(t *testing.T) {
	loop, _ := haloWorld(t)
	var barriers []int64
	_, outs, err := loop.Run(func(ms []*interp.Machine, iter int64) error {
		if len(ms) != 2 {
			t.Fatalf("barrier %d saw %d ranks, want 2", iter, len(ms))
		}
		barriers = append(barriers, iter)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(barriers, want) {
		t.Errorf("barriers = %v, want %v", barriers, want)
	}
	if len(outs) != 2 || outs[0] == "" || outs[1] == "" {
		t.Fatalf("outputs = %q", outs)
	}
	if outs[0] == outs[1] {
		t.Error("ranks should produce different outputs (different init)")
	}
}

// TestExchangesActuallyCouple: with the exchanges removed, rank 0's
// evolution differs, since its ghost cells keep their initial values
// instead of the neighbor's halo.
func TestExchangesActuallyCouple(t *testing.T) {
	mod, err := interp.Compile(haloSource)
	if err != nil {
		t.Fatal(err)
	}
	run := func(exchanges []validate.Exchange) []string {
		t.Helper()
		loop, err := validate.FindWorld(mod, haloSpec, 2, exchanges)
		if err != nil {
			t.Fatal(err)
		}
		_, outs, err := loop.Run(func([]*interp.Machine, int64) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	coupled, uncoupled := run(haloExchanges), run(nil)
	if coupled[0] == uncoupled[0] {
		t.Error("halo exchange had no observable effect on rank 0")
	}
}

// TestWorldErrors: zero ranks, an unknown function and an out-of-range
// exchange are refused when the world is resolved; an unknown exchange
// variable fails the run at its first barrier.
func TestWorldErrors(t *testing.T) {
	mod, err := interp.Compile(haloSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := validate.FindWorld(mod, haloSpec, 0, nil); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := validate.FindWorld(mod, core.LoopSpec{Function: "nosuch", StartLine: 1, EndLine: 2}, 2, nil); err == nil {
		t.Error("bad function accepted")
	}
	if _, err := validate.FindWorld(mod, haloSpec, 2, []validate.Exchange{{SrcRank: 5, DstRank: 0, SrcVar: "u", DstVar: "u", Cells: 1}}); err == nil {
		t.Error("out-of-range exchange accepted")
	}
	loop, err := validate.FindWorld(mod, haloSpec, 2, []validate.Exchange{{SrcRank: 0, DstRank: 1, SrcVar: "nope", DstVar: "u", Cells: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loop.Run(func([]*interp.Machine, int64) error { return nil }); err == nil {
		t.Error("unknown exchange variable did not fail")
	}
}

func TestPerRankAnalysisIsLocal(t *testing.T) {
	_, critical := haloWorld(t)
	for r, vars := range critical {
		got := map[string]core.DependencyType{}
		for _, c := range vars {
			got[c.Name] = c.Type
		}
		want := map[string]core.DependencyType{"u": core.WAR, "step": core.Index}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: critical = %v, want %v", r, got, want)
		}
		// The scratch array tmp is not critical (fully overwritten before
		// its read every superstep).
		for _, c := range vars {
			if c.Name == "tmp" {
				t.Errorf("rank %d: tmp flagged %v", r, c.Type)
			}
		}
	}
}

// TestBSPCheckpointRestart holds the §VII argument end to end:
// synchronous per-rank checkpoints of the locally detected variables at
// global barriers suffice to restart the whole world, provided every rank
// restarts at the recovery line, the newest iteration every rank
// checkpointed. The run dies at every (barrier, rank) death point of its
// 12 checkpoints — 6 iterations × 2 ranks, rank 0 first — before a Put
// (ckpt.put) or after it (ckpt.committed), over a durable and a volatile
// store. Iteration k's checkpoints are Puts 2k−1 and 2k. A death after
// rank 1's checkpoint k recovers k, any other death k−1, and a line of 0
// fails typed.
func TestBSPCheckpointRestart(t *testing.T) {
	loop, critical := haloWorld(t)
	ref, err := validate.Record(loop, critical)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{ref.Final[0].Output, ref.Final[1].Output}; !reflect.DeepEqual(got, []string{"0 2.0 7.3876953125\n", "1 11.6123046875 17.0\n"}) {
		t.Fatalf("reference outputs = %q", got)
	}
	type row struct {
		schedule string
		retain   int
		line     int64 // the recovered iteration; 0: none
	}
	var rows []row
	for i := int64(1); i <= 12; i++ {
		k := (i + 1) / 2
		committed := k - 1
		if i%2 == 0 { // rank 1's checkpoint k, the barrier's last
			committed = k
		}
		rows = append(rows,
			row{fmt.Sprintf("ckpt.put=crash@nth=%d", i), 0, k - 1},
			row{fmt.Sprintf("ckpt.committed=crash@nth=%d", i), 0, committed})
	}
	// Rank 1 dies before its checkpoint 3, after rank 0 took checkpoint 3
	// and pruned. Over two ranks each keeps one checkpoint more than
	// Retain(n) asks, so even Retain(1) keeps iteration 2 on both ranks:
	// rank 0 holds 2 and 3, rank 1 holds 2.
	rows = append(rows, row{"ckpt.put=crash@nth=6", 2, 2}, row{"ckpt.put=crash@nth=6", 1, 2})

	for _, kind := range []store.Kind{store.KindFile, store.KindMemory} {
		for _, tc := range rows {
			t.Run(fmt.Sprintf("%s/%s/retain=%d", kind, tc.schedule, tc.retain), func(t *testing.T) {
				faults := faultinject.NewRegistry(1)
				if err := faults.ArmSchedule(tc.schedule); err != nil {
					t.Fatal(err)
				}
				f := &validate.FailStop{Loop: loop, Critical: critical, Level: checkpoint.L1, Retain: tc.retain,
					Store: store.Config{Kind: kind, Dir: t.TempDir(), Faults: faults}}
				defer f.Close()
				d, err := f.Run(0, nil)
				if err != nil {
					t.Fatal(err)
				}
				var crash *faultinject.Crash
				if !errors.As(d.Err, &crash) {
					t.Fatalf("run ended with %v, want the scheduled crash", d.Err)
				}
				faults.DisarmAll()
				rec := f.Recover(nil)
				if tc.line == 0 {
					if !errors.Is(rec.Err, checkpoint.ErrNoCheckpoint) {
						t.Fatalf("recovery = iteration %d, %v; want ErrNoCheckpoint", rec.Iter, rec.Err)
					}
					return
				}
				if rec.Err != nil || rec.Iter != tc.line {
					t.Fatalf("recovery = iteration %d, %v; want iteration %d", rec.Iter, rec.Err, tc.line)
				}
				if msg := rec.Check(ref); msg != "" {
					t.Error(msg)
				}
			})
		}
	}

	// A node loss after 3 completed supersteps recovers 3; without u on
	// every rank the restart must diverge (u is necessary).
	f := &validate.FailStop{Loop: loop, Critical: critical, Level: checkpoint.L1,
		Store: store.Config{Kind: store.KindFile, Dir: t.TempDir()}}
	if d, err := f.Run(3, nil); err != nil || !errors.Is(d.Err, interp.ErrFailStop) {
		t.Fatalf("fail-stop run: %v, %v", d, err)
	}
	if rec := f.Recover(nil); rec.Err != nil || rec.Iter != 3 || rec.Check(ref) != "" {
		t.Errorf("recovery = iteration %d, %v, %q; want 3 matching the reference", rec.Iter, rec.Err, rec.Check(ref))
	}
	if rec := f.Recover(map[string]bool{"u": true}); rec.Err == nil && rec.Check(ref) == "" {
		t.Error("restart without u should not match the reference")
	}
}

func TestMyrankBuiltin(t *testing.T) {
	mod, err := interp.Compile(`int main() { print(myrank(), nranks()); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod)
	m.Rank, m.Ranks = 3, 8
	out, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out != "3 8\n" {
		t.Errorf("output = %q, want \"3 8\"", out)
	}
	// Defaults.
	m2 := interp.New(mod)
	out, err = m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out != "0 1\n" {
		t.Errorf("default output = %q, want \"0 1\"", out)
	}
}
