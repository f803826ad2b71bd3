package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	chaosFull   = flag.Bool("chaos.full", false, "TestChaosOutcomesGolden also checks the full seed-1 sweep (3 ports x 10 stacks, about 10 s)")
	chaosUpdate = flag.Bool("chaos.update", false, "TestChaosOutcomesGolden rewrites its golden files instead of comparing")
)

// chaosOutcomes renders a sweep one run per line: benchmark, stack,
// schedule, PASS/FAIL, the number of fired failpoints, the outcome class
// and the detail. An async writer drains on its own goroutine, so how
// many commits an +async stack saw before it died is a wall-clock race;
// its detail is masked, and every other column must replay exactly.
func chaosOutcomes(rep *ChaosReport) string {
	var b strings.Builder
	for _, r := range rep.Runs {
		status := "PASS"
		if !r.OK {
			status = "FAIL"
		}
		detail := r.Detail
		if strings.Contains(r.Stack, "+async") {
			detail = "(async: masked)"
		}
		fmt.Fprintf(&b, "%s %s %s %s events=%d %s %s\n",
			r.Bench, r.Stack, r.Schedule, status, r.Events, r.Outcome, detail)
	}
	return b.String()
}

// TestChaosOutcomesGolden pins the seed-1 chaos sweeps, quick and (with
// -chaos.full) full, to the outcomes recorded in testdata: every run's
// classification, fired-event count and detail. Rewrite the files with
// -chaos.update only for a change that means to move an outcome.
func TestChaosOutcomesGolden(t *testing.T) {
	sweeps := map[string]bool{"quick": true} // sweep name -> ChaosOptions.Quick
	if *chaosFull {
		sweeps["full"] = false
	}
	for name, quick := range sweeps {
		t.Run(name, func(t *testing.T) {
			rep, err := RunChaosValidation(t.TempDir(), ChaosOptions{Seed: 1, Quick: quick})
			if err != nil {
				t.Fatal(err)
			}
			got := chaosOutcomes(rep)
			path := filepath.Join("testdata", "chaos_seed1_"+name+".golden")
			if *chaosUpdate {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("seed-1 %s sweep differs from %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
			}
		})
	}
}
