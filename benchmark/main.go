// Command benchmark measures the AutoCheck analysis path and the
// checkpoint path: six named workloads, end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run. See
// README.md; BENCHMARK.json at the root of the repository declares the
// workloads and metrics this program reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// hangAfter turns a stuck run into a failed one before the caller's own
// limit of 180 seconds.
const hangAfter = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this workload in this process (default: every workload, each in a child process)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "how long a run measures")
	traced := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	runs := fs.Int("runs", 1, "without -workload: runs per workload, with seeds seed, seed+1, ...")
	outFile := fs.String("o", "", "without -workload: write the run set to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two run sets: -compare A.json B.json")
	describe := fs.Bool("describe", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traced != 0
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *describe:
		return printJSON(stdout, declaration(), "  ")
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two run-set files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case cfg.workload == "":
		set, err := runAll(cfg, *runs, stderr)
		if err != nil {
			return fail(err)
		}
		if *outFile != "" {
			data, _ := json.MarshalIndent(set, "", " ")
			if err := os.WriteFile(*outFile, data, 0o644); err != nil {
				return fail(err)
			}
		}
		if !set.correct() {
			return fail(fmt.Errorf("some operations failed"))
		}
		return 0
	}
	watchdog := time.AfterFunc(hangAfter, func() {
		fmt.Fprintf(stderr, "benchmark: %s still running after %v\n", cfg.workload, hangAfter)
		os.Exit(1)
	})
	defer watchdog.Stop()
	runOne := runEndToEnd
	if cfg.trace {
		runOne = runTraced
	}
	out, err := runOne(cfg)
	if err != nil {
		return fail(err)
	}
	report(stderr, cfg, out)
	return printJSON(stdout, out.result, "")
}

func printJSON(w io.Writer, v any, indent string) int {
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit, for a person.
func report(w io.Writer, cfg config, out *outcome) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d ops, %d failed, %d records, reference pass %.3f ms (nominal %.3f)\n",
		cfg.workload, cfg.seed, cfg.trace, out.Attempted, out.Failed, out.records, out.referenceMS, refNominal)
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// declaration is the content of BENCHMARK.json.
func declaration() any {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []namedWhy
	for _, w := range workloads {
		ws = append(ws, namedWhy{w.name, w.why})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": int(defaultConfig().seconds),
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer, // no bound: the zero value is left out
	}
}

// ---- every workload, each run in a fresh child process ----

// runSet is what -o writes and -compare reads.
type runSet struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Runs        []setRun          `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func (s *runSet) correct() bool {
	for _, r := range s.Runs {
		if !r.Result.Correct {
			return false
		}
	}
	return true
}

// runAll runs every workload `runs` times, each run in a child process
// of its own so that peak memory and collector state are the run's own.
func runAll(cfg config, runs int, stderr io.Writer) (*runSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &runSet{Fingerprint: fingerprint()}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			r := setRun{Workload: w.name, Seed: cfg.seed + int64(i), Trace: cfg.trace}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(r.Seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(b2i(cfg.trace)))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, r.Seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); err != nil {
				return nil, fmt.Errorf("%s seed %d: result: %w", w.name, r.Seed, err)
			}
			set.Runs = append(set.Runs, r)
		}
	}
	return set, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
