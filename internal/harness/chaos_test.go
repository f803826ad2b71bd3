package harness

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"autocheck/internal/store"
)

func TestChaosQuickSweepPasses(t *testing.T) {
	rep, err := RunChaosValidation(t.TempDir(), ChaosOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		t.Fatalf("chaos sweep failed:\n%s", FormatChaos(rep))
	}
	if len(rep.Runs) == 0 {
		t.Fatal("sweep ran nothing")
	}
	fired := 0
	sawRecovered := false
	for _, r := range rep.Runs {
		fired += r.Events
		if r.Outcome == "recovered" {
			sawRecovered = true
		}
		if r.Outcome == "no-fire" {
			t.Errorf("%s/%s/%s: schedule never fired — dead coverage", r.Bench, r.Stack, r.Schedule)
		}
	}
	if fired == 0 {
		t.Fatal("no failpoint fired across the whole sweep")
	}
	if !sawRecovered {
		t.Error("no run actually died and recovered — the sweep is not exercising restart")
	}
	out := FormatChaos(rep)
	if !strings.Contains(out, "seed 1") {
		t.Errorf("report does not mention the sweep seed:\n%s", out)
	}
}

// TestChaosSweepIsReplayable: the same seed must reproduce the same
// outcomes and the same fired events (compared per run as sorted
// multisets: event ordering across concurrently-hit sites may
// interleave, but which failpoints fire, where, and on which hit is
// deterministic).
func TestChaosSweepIsReplayable(t *testing.T) {
	sweep := func() *ChaosReport {
		rep, err := RunChaosValidation(t.TempDir(), ChaosOptions{
			Seed: 42, Quick: true, Benchmarks: []string{"IS"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := sweep(), sweep()
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Seed != rb.Seed || ra.Outcome != rb.Outcome || ra.OK != rb.OK {
			t.Errorf("run %s/%s/%s not reproducible: (%d,%s,%v) vs (%d,%s,%v)",
				ra.Bench, ra.Stack, ra.Schedule, ra.Seed, ra.Outcome, ra.OK, rb.Seed, rb.Outcome, rb.OK)
		}
		ea := append([]string(nil), ra.EventLog...)
		eb := append([]string(nil), rb.EventLog...)
		sort.Strings(ea)
		sort.Strings(eb)
		if !reflect.DeepEqual(ea, eb) {
			t.Errorf("run %s/%s/%s events differ:\n  %v\n  %v",
				ra.Bench, ra.Stack, ra.Schedule, ea, eb)
		}
	}
}

func TestChaosSingleCombination(t *testing.T) {
	// The replay shape the report prints: one benchmark, one stack, one
	// schedule.
	rep, err := RunChaosValidation(t.TempDir(), ChaosOptions{
		Seed:       7,
		Benchmarks: []string{"IS"},
		Stacks:     []string{"file+incr"},
		Schedules:  []string{"torn-write"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(rep.Runs))
	}
	r := rep.Runs[0]
	if !r.OK || r.Events == 0 {
		t.Fatalf("torn-write on file+incr: %+v", r)
	}
	if r.Replay(rep.Seed) != "autocheck chaos -seed 7 -benchmark IS -stack file+incr -schedule torn-write" {
		t.Errorf("replay line = %q", r.Replay(rep.Seed))
	}
}

func TestChaosRejectsUnknownInputs(t *testing.T) {
	if _, err := RunChaosValidation(t.TempDir(), ChaosOptions{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RunChaosValidation(t.TempDir(), ChaosOptions{
		Benchmarks: []string{"IS"}, Stacks: []string{"file+warp"},
	}); err == nil {
		t.Error("unknown stack layer accepted")
	}
	// The memory stack restarts over a bare shared backend, so async and
	// incr layers on it would be silently dropped.
	for _, stack := range []string{"memory+async", "memory+incr"} {
		_, err := RunChaosValidation(t.TempDir(), ChaosOptions{
			Benchmarks: []string{"IS"}, Stacks: []string{stack}, Schedules: []string{"writer-crash"},
		})
		if err == nil || !strings.Contains(err.Error(), stack) {
			t.Errorf("stack %s: err = %v, want a rejection naming the stack", stack, err)
		}
	}
	if _, err := RunChaosValidation(t.TempDir(), ChaosOptions{
		Benchmarks: []string{"IS"}, Schedules: []string{"nope"},
	}); err == nil {
		t.Error("unknown schedule accepted")
	}
}

func TestChaosStackConfigs(t *testing.T) {
	for _, stack := range ChaosStacks() {
		if _, _, _, err := chaosStackConfig(stack, t.TempDir()); err != nil {
			t.Errorf("stack %q: %v", stack, err)
		}
	}
	cfg, level, services, err := chaosStackConfig("remote+cached", "/x")
	if err != nil || services != 1 || cfg.CacheMB == 0 || level.String() != "L1" {
		t.Errorf("remote+cached parsed to %+v level=%v services=%d err=%v", cfg, level, services, err)
	}
	if _, level, _, err := chaosStackConfig("file+l2", "/x"); err != nil || level.String() != "L2" {
		t.Errorf("file+l2 level = %v (%v)", level, err)
	}
	cfg, _, services, err = chaosStackConfig("replicated", "/x")
	if err != nil || services != 3 || cfg.Kind != store.KindReplicated || cfg.HedgeAfter <= 0 {
		t.Errorf("replicated parsed to %+v services=%d err=%v", cfg, services, err)
	}
	if _, _, services, err := chaosStackConfig("file", "/x"); err != nil || services != 0 {
		t.Errorf("file needs %d services (%v), want 0", services, err)
	}
}

// TestChaosReplicatedCluster is the multi-node matrix of the sweep: every
// replica-targeted schedule against the replicated stacks, each run a
// 3-node cluster with one node killed, partitioned, slowed, or scrubbed
// to death — restarts must verify byte-identically from the survivors.
func TestChaosReplicatedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos matrix is not -short")
	}
	rep, err := RunChaosValidation(t.TempDir(), ChaosOptions{
		Benchmarks: []string{"IS"},
		Stacks:     []string{"replicated", "replicated+cached"},
		Schedules: []string{
			"replica-kill-mid-put", "replica-partition",
			"replica-slow-hedge", "replica-kill-scrub",
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 8 {
		t.Fatalf("matrix ran %d combinations, want 8", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if !r.OK {
			t.Errorf("%s/%s/%s failed: %s\n  replay: %s", r.Bench, r.Stack, r.Schedule, r.Detail, r.Replay(rep.Seed))
		}
		if r.Events == 0 {
			t.Errorf("%s/%s/%s: schedule never fired — dead coverage", r.Bench, r.Stack, r.Schedule)
		}
	}
}
