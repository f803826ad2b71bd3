package main

import (
	"flag"
	"fmt"

	"autocheck"
)

const explainNotes = `Prints the classification listing analyze prints (the same renderer, so
the two can never disagree), then, for every MLI variable, the signals
the dependency pass accumulated and the §IV-C rule that decided.`

func cmdExplain(fs *flag.FlagSet) func() error {
	loop := addLoopFlags(fs)
	return func() error {
		spec, err := loop.spec("explain")
		if err != nil {
			return err
		}
		opts := autocheck.DefaultOptions()
		opts.Explain = true
		res, err := analyzeLocal(loop, spec, opts, false)
		if err != nil {
			return err
		}
		printAnalysis(res)
		fmt.Println("\nprovenance:")
		for _, p := range res.Provenance {
			verdict := "not critical"
			if p.Critical {
				verdict = p.Type.String()
			}
			where := p.Fn
			if where == "" {
				where = "global"
			}
			fmt.Printf("  %-24s %-12s (%s)\n", p.Name, verdict, where)
			fmt.Printf("      rule: %s\n", p.Rule)
			fmt.Printf("      signals: %s\n", formatSignals(p))
		}
		return nil
	}
}

// formatSignals renders the accumulated evidence for one variable,
// including the dynamic record ids where each decisive signal first
// fired, so a trail can be cross-referenced against the trace itself.
func formatSignals(p autocheck.Provenance) string {
	s := fmt.Sprintf("first-access=%s", p.FirstAccess)
	if p.FirstDyn >= 0 {
		s += fmt.Sprintf("@dyn%d", p.FirstDyn)
	}
	s += fmt.Sprintf(" reads=%d writes=%d", p.Reads, p.Writes)
	if p.UncoveredRead {
		s += fmt.Sprintf(" uncovered-read@dyn%d", p.UncoveredDyn)
	}
	if p.ReadAfterLoop {
		s += fmt.Sprintf(" read-after-loop@dyn%d", p.AfterLoopDyn)
	}
	if p.SelfUpdates > 0 || p.CmpUses > 0 {
		s += fmt.Sprintf(" self-updates=%d cmp-uses=%d", p.SelfUpdates, p.CmpUses)
	}
	return s
}
