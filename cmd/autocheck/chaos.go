package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autocheck/internal/harness"
)

const chaosNotes = `Sweeps benchmark x store stack x failpoint schedule: each run is killed by
its injected fault, restarted, and verified byte-for-byte against the
failure-free run. A failure prints the seed and schedule that replay it.`

func cmdChaos(fs *flag.FlagSet) func() error {
	seed := fs.Int64("seed", 1, "fault randomness root; a failure replays from its printed seed")
	quick := fs.Bool("quick", false, "CI smoke subset (1 benchmark, 3 stacks, core schedules)")
	benchmarks := fs.String("benchmark", "", "comma-separated ports to sweep (default: IS,EP,CG; quick: IS)")
	stacks := fs.String("stack", "", "comma-separated store stacks (default: all; see -list)")
	schedules := fs.String("schedule", "", "comma-separated schedule names (default: every applicable)")
	list := fs.Bool("list", false, "list stacks and failpoint schedules, then exit")
	verbose := fs.Bool("v", false, "print fired failpoints for passing runs too")
	return func() error {
		if *list {
			fmt.Println("store stacks:")
			for _, s := range harness.ChaosStacks() {
				fmt.Printf("  %s\n", s)
			}
			fmt.Println("failpoint schedules:")
			for _, s := range harness.ChaosSchedules(false) {
				line := fmt.Sprintf("  %-20s write=%q", s.Name, s.Write)
				if s.Restart != "" {
					line += fmt.Sprintf(" restart=%q", s.Restart)
				}
				if s.Needs != "" {
					line += fmt.Sprintf(" (needs %s)", s.Needs)
				}
				fmt.Println(line)
			}
			return nil
		}
		dir, err := os.MkdirTemp("", "autocheck-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		rep, err := harness.RunChaosValidation(dir, harness.ChaosOptions{
			Seed:       *seed,
			Quick:      *quick,
			Benchmarks: splitList(*benchmarks),
			Stacks:     splitList(*stacks),
			Schedules:  splitList(*schedules),
		})
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatChaos(rep))
		if *verbose {
			for _, r := range rep.Runs {
				if r.OK && len(r.EventLog) > 0 {
					fmt.Printf("  %s/%s/%s fired: %s\n", r.Bench, r.Stack, r.Schedule, strings.Join(r.EventLog, ", "))
				}
			}
		}
		if rep.Failures > 0 {
			return fmt.Errorf("chaos: %d of %d runs failed (replay commands above)", rep.Failures, len(rep.Runs))
		}
		return nil
	}
}
