// Command autocheck is the command-line front end of the AutoCheck
// reproduction: it names the variables a main computation loop must
// checkpoint, regenerates the paper's evaluation tables, validates
// restarts through the internal/store checkpoint engine, and runs the
// checkpoint and trace-ingest services. `autocheck help` lists the
// commands; `autocheck <cmd> -h` documents one command's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"autocheck"
	"autocheck/internal/harness"
	"autocheck/internal/progs"
	"autocheck/internal/store"
)

// exitError carries a typed process exit code alongside the failure, so
// scripted callers (the doctor's CI smoke job, health probes) can branch
// on the failure class instead of parsing messages.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// command is one subcommand. setup registers its flags on fs — the only
// place they are documented — and returns the action to run once they
// are parsed.
type command struct {
	name     string
	synopsis string // one line in `autocheck help`
	notes    string // what `autocheck <name> -h` says beyond the flags
	setup    func(fs *flag.FlagSet) func() error
}

// commands drives both dispatch and `autocheck help`.
var commands = []command{
	{"analyze", "print the critical variables to checkpoint for a main loop", "", cmdAnalyze},
	{"explain", "analyze, then print each MLI variable's provenance trail", explainNotes, cmdExplain},
	{"doctor", "probe a checkpoint deployment's health (typed exit codes)", doctorNotes, cmdDoctor},
	{"trace", "trace a mini-C program into a text or binary trace file", "", cmdTrace},
	{"convert", "convert a trace file between the text and binary encodings", "", cmdConvert},
	{"table2", "regenerate Table II (critical variables)", "", cmdTable2},
	{"table3", "regenerate Table III (analysis cost)", "", noFlags(table(harness.RunTable3, harness.FormatTable3))},
	{"table4", "regenerate Table IV (checkpoint storage)", "", noFlags(table(harness.RunTable4, harness.FormatTable4))},
	{"validate", "run the fail-stop/restart validation (§VI-B)", "", cmdValidate},
	{"chaos", "deterministic fault-injection sweep with byte-for-byte recovery checks", chaosNotes, cmdChaos},
	{"serve", "run the checkpoint storage service", serveNotes, cmdServe},
	{"loadgen", "drive multi-tenant checkpoint load against a running serve", loadgenNotes, cmdLoadgen},
	{"list", "list the 14 benchmark ports", "", noFlags(cmdList)},
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches args to their command and returns the process exit code:
// 2 for an unknown command or a flag error, an exitError's own code, 1 for
// any other failure, 0 otherwise (including -h).
func run(args []string) int {
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" || args[0] == "--help" {
		help(os.Stderr)
		if len(args) == 0 {
			return 2
		}
		return 0
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == args[0] })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "autocheck: unknown command %q\n", args[0])
		help(os.Stderr)
		return 2
	}
	fs, action := commands[i].flags()
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := action(); err != nil {
		fmt.Fprintf(os.Stderr, "autocheck: %v\n", err)
		var ee *exitError
		if errors.As(err, &ee) {
			return ee.code
		}
		return 1
	}
	return 0
}

// flags builds the command's FlagSet, whose -h output is the command's
// documentation, and the action to run once it is parsed.
func (c *command) flags() (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	action := c.setup(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "autocheck %s: %s\n", c.name, c.synopsis)
		if c.notes != "" {
			fmt.Fprintf(fs.Output(), "\n%s\n", c.notes)
		}
		fmt.Fprintln(fs.Output())
		fs.PrintDefaults()
	}
	return fs, action
}

func help(w io.Writer) {
	fmt.Fprintln(w, "usage: autocheck <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(w, "\n`autocheck <command> -h` lists a command's flags.")
}

func noFlags(action func() error) func(*flag.FlagSet) func() error {
	return func(*flag.FlagSet) func() error { return action }
}

// table runs a harness table and prints its formatted rows.
func table[R any](run func() ([]R, error), format func([]R) string) func() error {
	return func() error {
		rows, err := run()
		if err != nil {
			return err
		}
		fmt.Print(format(rows))
		return nil
	}
}

func cmdTable2(fs *flag.FlagSet) func() error {
	workers := fs.Int("workers", 0, "analyze the 14 ports concurrently with this many engines (0 = serial)")
	return func() error {
		run := harness.RunTable2
		if *workers > 0 {
			run = func() ([]harness.Table2Row, error) { return harness.RunTable2Parallel(*workers) }
		}
		return table(run, harness.FormatTable2)()
	}
}

func cmdList() error {
	for _, b := range progs.All() {
		spec, err := b.Spec(0)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s LOC=%-4d MCLR=%d-%d  %s\n", b.Name, b.LOC(), spec.StartLine, spec.EndLine, b.Description)
	}
	return nil
}

// storageFlags holds the storage flags. Each is defined once, in
// addStorageFlags; validate, doctor and serve register the subset they
// accept by name.
type storageFlags struct {
	cfg         store.Config
	kind, addrs string
}

func addStorageFlags(fs *flag.FlagSet, names ...string) *storageFlags {
	f := &storageFlags{}
	all := flag.NewFlagSet("storage", flag.PanicOnError)
	all.StringVar(&f.kind, "store", "file", "checkpoint storage backend: file, memory, remote (-addr) or replicated (-addrs)")
	all.StringVar(&f.cfg.Addr, "addr", "", "checkpoint service address")
	all.StringVar(&f.addrs, "addrs", "", "comma-separated replica service addresses, one per node")
	all.IntVar(&f.cfg.WriteQuorum, "write-quorum", 0, "replicated: acks required per write (0 = majority)")
	all.IntVar(&f.cfg.ReadQuorum, "read-quorum", 0, "replicated: replicas consulted per read (0 = majority)")
	all.DurationVar(&f.cfg.HedgeAfter, "hedge-after", 0, "replicated: hedge reads after this delay (0 = adaptive p95, negative = off)")
	all.StringVar(&f.cfg.Dir, "dir", "", "storage root directory")
	all.BoolVar(&f.cfg.Sync, "sync", false, "fsync every write")
	all.IntVar(&f.cfg.CacheMB, "cache-mb", 0, "read-through LRU cache over the base backend (MB, 0 = off)")
	all.BoolVar(&f.cfg.Async, "async", false, "double-buffered asynchronous checkpoint writes")
	all.BoolVar(&f.cfg.Incremental, "incremental", false, "delta checkpoints: re-write only changed variables, with periodic full keyframes")
	all.IntVar(&f.cfg.Keyframe, "keyframe", 8, "incremental: full checkpoint every N writes")
	for _, name := range names {
		def := all.Lookup(name)
		fs.Var(def.Value, def.Name, def.Usage)
	}
	return f
}

// config returns the store.Config the parsed flags describe.
func (f *storageFlags) config() (store.Config, error) {
	kind, err := store.ParseKind(f.kind)
	if err != nil {
		return store.Config{}, err
	}
	cfg := f.cfg
	cfg.Kind = kind
	cfg.Addrs = splitList(f.addrs)
	return cfg, nil
}

// splitList parses a comma-separated list, dropping empty elements and
// surrounding whitespace.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func compileFile(path string) (*autocheck.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return autocheck.CompileProgram(string(src))
}
