// Command autocheck is the command-line front end of the AutoCheck
// reproduction.
//
//	autocheck analyze  -file prog.mc -start N -end M [-func main] [-ddg] [-stream] [-online]
//	autocheck explain  -file prog.mc -start N -end M [-func main]
//	autocheck doctor   [-addr HOST:PORT | -addrs A,B,C | -dir DIR [-store KIND]]
//	autocheck trace    -file prog.mc [-o trace.txt]
//	autocheck table2 [-workers K] | table3 | table4
//	autocheck validate [-store file|memory|sharded|remote|replicated]
//	                   [-addr HOST:PORT] [-addrs A,B,C] [-write-quorum W] [-read-quorum R]
//	                   [-cache-mb N] [-benchmark NAME] [-level L1..L4]
//	                   [-async] [-incremental] [-keyframe N] [-shard-workers K]
//	autocheck chaos    [-seed N] [-quick] [-benchmark B,..] [-stack S,..] [-schedule X,..]
//	autocheck serve    -addr HOST:PORT [-cluster N] [-store file|memory|sharded] [-dir DIR]
//	autocheck loadgen  -addr HOST:PORT [-tenants N] [-clients N] [-seed N] [-quick] [-strict]
//	autocheck list
//
// `analyze` compiles a mini-C program, executes it under the tracing
// interpreter, and prints the critical variables to checkpoint for the
// given main-computation-loop range. The table subcommands regenerate the
// paper's evaluation tables over the 14 benchmark ports; `validate` runs
// the §VI-B fail-stop/restart protocol, optionally through any backend
// and write-path decorator of the internal/store checkpoint engine —
// including the networked checkpoint service started by `serve`, reached
// with `-store remote -addr` and optionally fronted by the read-through
// cache tier (`-cache-mb`), or a whole cluster of them (`serve -cluster
// 3`) behind the replicated quorum tier (`-store replicated -addrs`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autocheck"
	"autocheck/internal/admission"
	"autocheck/internal/analysis"
	"autocheck/internal/checkpoint"
	"autocheck/internal/harness"
	"autocheck/internal/progs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/trace"
	"autocheck/internal/validate"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "doctor":
		err = cmdDoctor(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "table2":
		err = cmdTable2(os.Args[2:])
	case "table3":
		err = cmdTable3()
	case "table4":
		err = cmdTable4()
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "list":
		err = cmdList()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "autocheck: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "autocheck: %v\n", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  autocheck analyze  -file prog.mc -start N -end M [-func main] [-ddg] [-stream] [-online]
      -file    mini-C source file (compiled and traced)
      -trace   pre-generated trace file, text or binary (alternative to -file)
      -func    function containing the main computation loop (default main)
      -start   main loop start line
      -end     main loop end line
      -stream  bounded memory: scan a -trace file from disk once per
               sweep instead of loading it whole (records are never
               materialized either way); with -file, trace straight
               into ACTB bytes instead of a record slice
      -online  feed the analysis engine straight from the tracer while the
               program runs: no trace bytes at all (requires -file)
      -ddg     also print the contracted DDG (any mode but -addr)
      -addr    ship the trace to a "serve -ingest" service instead of
               analyzing locally (one-shot POST by default)
      -chunk-bytes with -addr: stream through a resumable session in
               chunks of this size; the client resumes across service
               restarts (0 = one-shot)
      -chunk-delay with -addr: pause between chunk uploads
      -ns      with -addr: tenant namespace for admission control
  autocheck trace    -file prog.mc [-o trace.out] [-trace-format text|binary]
      -o            output trace file (default stdout)
      -trace-format output encoding; binary is emitted directly by the
                    tracer without materializing records (default text)
  autocheck convert  -in trace.in -out trace.out [-to text|binary]
                                convert between the trace encodings
                                (input format auto-detected; default -to
                                is the opposite of the input)
  autocheck explain  -file prog.mc -start N -end M [-func main]
                                analyze and print the per-variable
                                provenance trail: the classification
                                listing (identical to analyze) plus, for
                                every MLI variable, the accumulated
                                signals and the rule that decided
  autocheck doctor   [-addr HOST:PORT | -addrs A,B,C | -dir DIR [-store KIND]]
                                probe a checkpoint deployment's health;
                                typed exit codes per failure class:
                                0 healthy, 10 connectivity, 11 canary
                                round trip, 12 chain/CRC integrity,
                                13 metrics endpoint, 14 replica quorum
                                unavailable or divergent
      -addr          live mode: service address (checks /v1/stats, a
                     canary write/read/delete, and /v1/metrics)
      -addrs         cluster mode: comma-separated replica addresses;
                     probes every node's health, then runs a quorum
                     canary and a cross-replica divergence scan through
                     the replicated tier
      -write-quorum, -read-quorum
                     cluster mode quorums (0 = majority)
      -ns            live mode: canary namespace (default doctor)
      -dir, -store   local mode: open the stack and walk every stored
                     key's dependency chain, plus the canary round trip
  autocheck table2 [-workers K] regenerate Table II  (critical variables)
      -workers analyze the 14 ports concurrently with K engines (0 = serial)
  autocheck table3              regenerate Table III (analysis cost)
  autocheck table4              regenerate Table IV  (checkpoint storage)
  autocheck validate [storage flags]
                                run the fail-stop/restart validation (§VI-B)
      -store         checkpoint storage backend: file, memory, sharded,
                     remote, or replicated (default file)
      -addr          remote backend: checkpoint service address
      -addrs         replicated backend: comma-separated replica service
                     addresses (one per node)
      -write-quorum  replicated: acks required per write (0 = majority)
      -read-quorum   replicated: replicas consulted per read (0 = majority)
      -hedge-after   replicated: hedge reads after this delay
                     (0 = adaptive p95, negative = off)
      -cache-mb N    read-through LRU cache over the base backend (MB)
      -benchmark     validate only this port (default: all 14)
      -level         checkpoint reliability level 1-4 or L1-L4 (default L1:
                     L2 adds a partner copy, L3 XOR parity, L4 fsync)
      -async         double-buffered asynchronous checkpoint writes
      -incremental   delta checkpoints: re-write only changed variables,
                     with periodic full keyframes
      -keyframe N    incremental: full checkpoint every N writes (default 8)
      -shard-workers sharded backend write pool size (default 4)
  autocheck chaos [-seed N] [-quick] [-benchmark B,...] [-stack S,...]
                  [-schedule NAME,...] [-list] [-v]
                                deterministic fault-injection sweep:
                                benchmark x store stack x failpoint
                                schedule, each run killed by its injected
                                fault, restarted, and verified
                                byte-for-byte against the failure-free
                                run; failures print the seed + schedule
                                that replay them exactly
      -seed          fault randomness root (default 1)
      -quick         CI smoke subset
      -list          list stacks and schedules
  autocheck serve    -addr HOST:PORT [-cluster N] [-store file|memory|sharded] [-dir DIR]
                                run the checkpoint storage service that
                                "-store remote" clients checkpoint into
      -addr          listen address (default 127.0.0.1:9473)
      -cluster       run N independent nodes in one process (ports count
                     up from -addr; a :0 base lets the kernel pick all of
                     them); prints the -addrs list replicated clients use
      -store         per-namespace backend kind (default file)
      -dir           storage root; one subdirectory per client namespace
                     (default: a fresh temp dir)
      -sync          fsync every write
      -shard-workers sharded backend write pool size (default 4)
      -max-inflight  bound on concurrently served requests; excess gets
                     503 + Retry-After, which clients absorb by retrying
      -tenant-slots  per-tenant (namespace) concurrent request cap
      -tenant-rate   per-tenant sustained requests/sec (token bucket)
      -tenant-burst  token-bucket burst (0 = rate rounded up)
      -queue-depth   per-tenant wait queue past -max-inflight, drained in
                     weighted priority order (restart > interactive >
                     ingest > scrub); overflow sheds carry a Retry-After
                     computed from queue depth and drain rate
      -ingest        also mount the trace-ingest service: one-shot
                     POST /v1/analyze/{ns} plus resumable chunked
                     sessions under /v1/sessions (single node only)
      -ingest-sessions per-namespace live session quota (default 8)
      -ingest-inflight per-namespace in-flight ingest cap (default 16)
      -ingest-ttl    idle session eviction TTL (default 2m); evicted
                     sessions recover from the store on the next request
  autocheck loadgen  -addr HOST:PORT [-tenants N] [-clients N] [-ops N]
                     [-seed N] [-put-mix F] [-value-bytes N] [-think D]
                     [-schedule SPEC] [-quick] [-strict]
                                multi-tenant scaling harness: concurrent
                                simulated clients spread across tenant
                                namespaces drive seeded checkpoint
                                Put/Get mixes (interactive vs restart
                                admission classes) against a running
                                serve and print per-tenant throughput
                                and latency percentiles
      -schedule      client-side faultinject schedule, armed per client
                     with seed+client (e.g. store.remote.do=error@p=0.05)
      -quick         CI smoke subset (<=16 clients, <=25 ops each)
      -strict        exit nonzero on any failed op or silent tenant
  autocheck list                list the 14 benchmark ports`)
}

func compileFile(path string) (*autocheck.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return autocheck.CompileProgram(string(src))
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	file := fs.String("file", "", "mini-C source file (compiled and traced)")
	traceFile := fs.String("trace", "", "pre-generated trace file (alternative to -file)")
	fn := fs.String("func", "main", "function containing the main computation loop")
	start := fs.Int("start", 0, "main loop start line")
	end := fs.Int("end", 0, "main loop end line")
	stream := fs.Bool("stream", false, "bounded memory: scan the trace file from disk per sweep instead of loading it whole")
	online := fs.Bool("online", false, "analyze inside the tracer while the program runs (no trace bytes)")
	ddg := fs.Bool("ddg", false, "also print the contracted DDG")
	addr := fs.String("addr", "", "ship the trace to the ingest service at HOST:PORT instead of analyzing locally")
	chunkBytes := fs.Int("chunk-bytes", 0, "with -addr: stream the trace through a resumable session in chunks of this size (0 = one-shot)")
	chunkDelay := fs.Duration("chunk-delay", 0, "with -addr: pause between chunk uploads (restart smoke tests)")
	namespace := fs.String("ns", "default", "with -addr: tenant namespace for admission control")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*file == "" && *traceFile == "") || *start == 0 || *end == 0 {
		return fmt.Errorf("analyze needs -file or -trace, plus -start and -end")
	}
	spec := autocheck.LoopSpec{Function: *fn, StartLine: *start, EndLine: *end}
	if *addr != "" {
		if *online || *ddg || *stream {
			return fmt.Errorf("analyze -addr ships the trace to a service; -online, -ddg and -stream are local modes")
		}
		return analyzeRemote(*addr, *namespace, *file, *traceFile, spec, *chunkBytes, *chunkDelay)
	}
	opts := autocheck.DefaultOptions()
	opts.Streaming = *stream
	opts.BuildDDG = *ddg
	var res *autocheck.Result
	var err error
	switch {
	case *online:
		// Online mode: the engine observes records straight from the
		// tracer as the program executes — nothing is encoded or parsed.
		if *file == "" || *traceFile != "" {
			return fmt.Errorf("analyze -online runs the program with the engine attached and needs -file, not -trace (use -stream to analyze a pre-generated trace)")
		}
		if *stream {
			return fmt.Errorf("-online and -stream are different modes: online analyzes while the program runs, -stream re-reads a trace in bounded passes")
		}
		var mod *autocheck.Module
		mod, err = compileFile(*file)
		if err != nil {
			return err
		}
		opts.Module = mod
		res, _, err = autocheck.AnalyzeProgramOnline(mod, spec, opts)
	case *traceFile != "":
		// Trace-only mode: induction detection uses the dynamic heuristic.
		res, err = autocheck.AnalyzeFile(*traceFile, spec, opts)
	default:
		var mod *autocheck.Module
		mod, err = compileFile(*file)
		if err != nil {
			return err
		}
		opts.Module = mod
		if *stream {
			// Honor -stream in -file mode too: trace straight into the
			// compact binary encoding (no []Record materialized) and
			// analyze it in bounded passes.
			var data []byte
			data, _, err = autocheck.TraceProgramBinary(mod)
			if err != nil {
				return err
			}
			res, err = autocheck.AnalyzeBytes(data, spec, opts)
		} else {
			var recs []autocheck.Record
			recs, _, err = autocheck.TraceProgram(mod)
			if err != nil {
				return err
			}
			res, err = autocheck.Analyze(recs, spec, opts)
		}
	}
	if err != nil {
		return err
	}
	printAnalysis(res)
	if *ddg && res.Contracted != nil {
		fmt.Println("\ncontracted DDG (DOT):")
		fmt.Print(res.Contracted.DOT("contracted"))
	}
	fmt.Printf("timing: pre=%v dep=%v identify=%v total=%v\n",
		res.Timing.Pre, res.Timing.Dep, res.Timing.Identify, res.Timing.Total)
	return nil
}

// analyzeRemote ships a trace to the ingest service and prints the
// result through the same renderer as a local run, so the outputs are
// byte-identical (modulo the timing line, which reports the service's
// clock). With chunkBytes > 0 the trace streams through a resumable
// session — the client rides out service restarts mid-stream.
func analyzeRemote(addr, namespace, file, traceFile string, spec autocheck.LoopSpec, chunkBytes int, chunkDelay time.Duration) error {
	var data []byte
	var err error
	if traceFile != "" {
		if data, err = os.ReadFile(traceFile); err != nil {
			return err
		}
	} else {
		mod, merr := compileFile(file)
		if merr != nil {
			return merr
		}
		if data, _, err = autocheck.TraceProgramBinary(mod); err != nil {
			return err
		}
	}
	cli, err := analysis.NewClient(addr)
	if err != nil {
		return err
	}
	cli.Namespace = namespace
	cli.ChunkDelay = chunkDelay
	var res *autocheck.Result
	if chunkBytes > 0 {
		res, err = cli.AnalyzeChunked(data, spec, chunkBytes)
	} else {
		res, err = cli.Analyze(data, spec)
	}
	if err != nil {
		return err
	}
	printAnalysis(res)
	fmt.Printf("timing: pre=%v dep=%v identify=%v total=%v\n",
		res.Timing.Pre, res.Timing.Dep, res.Timing.Identify, res.Timing.Total)
	return nil
}

// printAnalysis renders the classification part of an analysis result.
// Both `analyze` and `explain` go through it, so an explain run's
// critical-variable listing is byte-identical to analyze's on the same
// trace.
func printAnalysis(res *autocheck.Result) {
	fmt.Printf("trace: %d records (A=%d B=%d C=%d)\n",
		res.Stats.Records, res.Stats.RegionA, res.Stats.RegionB, res.Stats.RegionC)
	fmt.Printf("MLI variables: ")
	for i, v := range res.MLI {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(v.Name)
	}
	fmt.Println()
	fmt.Println("critical variables to checkpoint:")
	for _, c := range res.Critical {
		where := c.Fn
		if where == "" {
			where = "global"
		}
		fmt.Printf("  %-24s %-8s %8d bytes  (%s)\n", c.Name, c.Type, c.SizeBytes, where)
	}
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	file := fs.String("file", "", "mini-C source file")
	out := fs.String("o", "", "output trace file (default stdout)")
	formatName := fs.String("trace-format", "text", "output encoding: text or binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("trace needs -file")
	}
	format, err := trace.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	mod, err := compileFile(*file)
	if err != nil {
		return err
	}
	dst := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return err
		}
		dst = f
	}
	// The tracer streams into the encoder; no []Record is materialized.
	w := trace.NewRecordWriter(dst, format)
	progOut, err := autocheck.TraceProgramTo(mod, w)
	if f != nil {
		// Close errors count: filesystems may defer write failures to
		// close, and reporting success over a truncated file would let a
		// later analyze run silently accept a partial trace.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			// Don't leave a well-formed-looking prefix of the trace behind.
			os.Remove(*out)
			return err
		}
		fmt.Printf("wrote %d records (%s format) to %s\nprogram output: %s",
			w.Count(), format, *out, progOut)
		return nil
	}
	return err
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (format auto-detected)")
	out := fs.String("out", "", "output trace file")
	to := fs.String("to", "", "target encoding: text or binary (default: the other one)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	from := trace.DetectFormat(data)
	target := trace.FormatText
	if from == trace.FormatText {
		target = trace.FormatBinary
	}
	if *to != "" {
		if target, err = trace.ParseFormat(*to); err != nil {
			return err
		}
	}
	recs, err := trace.ParseBytes(data)
	if err != nil {
		return err
	}
	converted := trace.Encode(recs, target)
	if err := os.WriteFile(*out, converted, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s (%s, %d bytes) -> %s (%s, %d bytes): %d records, %.2fx size\n",
		*in, from, len(data), *out, target, len(converted), len(recs),
		float64(len(converted))/float64(len(data)))
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	workers := fs.Int("workers", 0, "analyze the 14 ports concurrently with this many engines (0 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rows []harness.Table2Row
	var err error
	if *workers > 0 {
		rows, err = harness.RunTable2Parallel(*workers)
	} else {
		rows, err = harness.RunTable2()
	}
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatTable2(rows))
	return nil
}

func cmdTable3() error {
	rows, err := harness.RunTable3()
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatTable3(rows))
	return nil
}

func cmdTable4() error {
	rows, err := harness.RunTable4()
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatTable4(rows))
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	storeKind := fs.String("store", "file", "checkpoint storage backend (file, memory, sharded, remote, replicated)")
	addr := fs.String("addr", "", "remote backend: checkpoint service address")
	addrsFlag := fs.String("addrs", "", "replicated backend: comma-separated replica service addresses")
	writeQuorum := fs.Int("write-quorum", 0, "replicated: acks required per write (0 = majority)")
	readQuorum := fs.Int("read-quorum", 0, "replicated: replicas consulted per read (0 = majority)")
	hedgeAfter := fs.Duration("hedge-after", 0, "replicated: hedge reads after this delay (0 = adaptive p95, negative = off)")
	cacheMB := fs.Int("cache-mb", 0, "read-through LRU cache over the base backend (MB, 0 = off)")
	benchName := fs.String("benchmark", "", "validate only this port (default: all 14)")
	level := fs.String("level", "L1", "checkpoint reliability level (1-4 or L1-L4)")
	async := fs.Bool("async", false, "double-buffered asynchronous checkpoint writes")
	incremental := fs.Bool("incremental", false, "delta checkpoints with periodic keyframes")
	keyframe := fs.Int("keyframe", 8, "incremental: full checkpoint every N writes")
	shardWorkers := fs.Int("shard-workers", store.DefaultShardWorkers, "sharded backend write pool size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := store.ParseKind(*storeKind)
	if err != nil {
		return err
	}
	if kind == store.KindRemote && *addr == "" {
		return fmt.Errorf("validate -store remote needs -addr (start one with `autocheck serve`)")
	}
	if kind != store.KindRemote && *addr != "" {
		return fmt.Errorf("-addr only applies to -store remote")
	}
	addrs := splitAddrs(*addrsFlag)
	if kind == store.KindReplicated && len(addrs) == 0 {
		return fmt.Errorf("validate -store replicated needs -addrs (start a cluster with `autocheck serve -cluster 3`)")
	}
	if kind != store.KindReplicated && len(addrs) > 0 {
		return fmt.Errorf("-addrs only applies to -store replicated")
	}
	lvl, err := checkpoint.ParseLevel(*level)
	if err != nil {
		return err
	}
	opts := validate.Options{
		Level: lvl,
		Store: store.Config{
			Kind:        kind,
			Addr:        *addr,
			Addrs:       addrs,
			WriteQuorum: *writeQuorum,
			ReadQuorum:  *readQuorum,
			HedgeAfter:  *hedgeAfter,
			CacheMB:     *cacheMB,
			Workers:     *shardWorkers,
			Async:       *async,
			Incremental: *incremental,
			Keyframe:    *keyframe,
		},
	}
	dir, err := os.MkdirTemp("", "autocheck-validate-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("storage: backend=%s level=%s async=%v incremental=%v",
		kind, lvl, *async, *incremental)
	if kind == store.KindRemote {
		fmt.Printf(" addr=%s", *addr)
	}
	if kind == store.KindReplicated {
		w, r := *writeQuorum, *readQuorum
		if w <= 0 {
			w = len(addrs)/2 + 1
		}
		if r <= 0 {
			r = len(addrs)/2 + 1
		}
		fmt.Printf(" replicas=%d write-quorum=%d read-quorum=%d addrs=%s",
			len(addrs), w, r, strings.Join(addrs, ","))
	}
	if *cacheMB > 0 {
		fmt.Printf(" cache=%dMB", *cacheMB)
	}
	fmt.Println()
	var names []string
	if *benchName != "" {
		names = []string{*benchName}
	}
	rows, err := harness.RunValidation(dir, opts, names)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatValidation(rows))
	return nil
}

// splitAddrs parses a comma-separated address list, dropping empty
// elements and surrounding whitespace.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9473", "listen address")
	cluster := fs.Int("cluster", 1, "run this many independent service nodes in one process")
	storeKind := fs.String("store", "file", "per-namespace backend kind (file, memory, sharded)")
	dir := fs.String("dir", "", "storage root directory (default: a fresh temp dir)")
	syncWrites := fs.Bool("sync", false, "fsync every write")
	shardWorkers := fs.Int("shard-workers", store.DefaultShardWorkers, "sharded backend write pool size")
	maxInFlight := fs.Int("max-inflight", server.DefaultMaxInFlight, "bound on concurrently served requests")
	tenantSlots := fs.Int("tenant-slots", 0, "per-tenant concurrent request cap (0 = unlimited)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained requests/sec token-bucket rate (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = rate rounded up)")
	queueDepth := fs.Int("queue-depth", 0, "per-tenant wait queue past -max-inflight, drained in weighted priority order (0 = shed immediately)")
	ingest := fs.Bool("ingest", false, "also mount the trace-ingest service (one-shot analyze + chunked sessions)")
	ingestSessions := fs.Int("ingest-sessions", analysis.DefaultMaxSessions, "per-namespace live session quota (with -ingest)")
	ingestInFlight := fs.Int("ingest-inflight", analysis.DefaultMaxInFlight, "per-namespace in-flight ingest request cap (with -ingest)")
	ingestTTL := fs.Duration("ingest-ttl", analysis.DefaultIdleTTL, "idle session eviction TTL (with -ingest)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := store.ParseKind(*storeKind)
	if err != nil {
		return err
	}
	if *cluster < 1 {
		return fmt.Errorf("serve: -cluster must be at least 1")
	}
	if *cluster > 1 && *ingest {
		return fmt.Errorf("serve: -ingest runs on a single node (sessions are per-node state); drop -cluster")
	}
	root := *dir
	if root == "" && kind != store.KindMemory {
		if root, err = os.MkdirTemp("", "autocheck-serve-*"); err != nil {
			return err
		}
		fmt.Printf("storage root: %s\n", root)
	}
	scfg := server.Config{
		Store:       store.Config{Kind: kind, Dir: root, Sync: *syncWrites, Workers: *shardWorkers},
		MaxInFlight: *maxInFlight,
		Admission: admission.Config{
			TenantSlots: *tenantSlots,
			TenantRate:  *tenantRate,
			TenantBurst: *tenantBurst,
			QueueDepth:  *queueDepth,
		},
	}
	if *ingest {
		scfg.Ingest = &analysis.Config{
			MaxSessions: *ingestSessions,
			MaxInFlight: *ingestInFlight,
			IdleTTL:     *ingestTTL,
		}
	}
	return serveNodes(*cluster, *addr, scfg)
}

// serveNodes runs n independent checkpoint services in one process until
// SIGINT or SIGTERM, then drains each and prints its totals. One node is
// the ordinary service. More are the replicated tier's development and
// smoke-test topology (real deployments run one `autocheck serve` per
// node): each node gets its own subdirectory of the storage root and its
// own listener; with a fixed base port the nodes count up from it, and a
// `:0` base lets the kernel pick every port.
func serveNodes(n int, addr string, cfg server.Config) error {
	addrs := []string{addr}
	if n > 1 {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			return fmt.Errorf("serve -cluster: bad -addr %q: %w", addr, err)
		}
		basePort, err := strconv.Atoi(portStr)
		if err != nil {
			return fmt.Errorf("serve -cluster: bad -addr port %q: %w", portStr, err)
		}
		for i := 1; i < n; i++ {
			nodeAddr := addr
			if basePort != 0 {
				nodeAddr = net.JoinHostPort(host, strconv.Itoa(basePort+i))
			}
			addrs = append(addrs, nodeAddr)
		}
	}
	// Only a cluster's lines name the node, so a single node's keep
	// their shape.
	node := func(i int) string {
		if n == 1 {
			return ""
		}
		return fmt.Sprintf("node=%d ", i)
	}
	var (
		srvs   []*server.Server
		bounds []string
	)
	serveErr := make(chan error, n)
	for i, nodeAddr := range addrs {
		ncfg := cfg
		if n > 1 && cfg.Store.Dir != "" {
			ncfg.Store.Dir = filepath.Join(cfg.Store.Dir, fmt.Sprintf("node%d", i))
		}
		srv, err := server.New(ncfg)
		if err != nil {
			return err
		}
		ready := make(chan string, 1)
		go func() { serveErr <- srv.ListenAndServe(nodeAddr, ready) }()
		var bound string
		select {
		case bound = <-ready:
		case err := <-serveErr:
			return err
		}
		srvs = append(srvs, srv)
		bounds = append(bounds, bound)
		// One structured line each for startup and shutdown: greppable
		// key=value pairs that log collectors and the doctor smoke job can
		// consume without parsing prose.
		fmt.Printf("serve: start %saddr=%s store=%s dir=%q max-inflight=%d sync=%v ingest=%v\n",
			node(i), bound, ncfg.Store.Kind, ncfg.Store.Dir, ncfg.MaxInFlight, ncfg.Store.Sync, ncfg.Ingest != nil)
	}
	if n == 1 {
		fmt.Printf("clients: autocheck validate -store remote -addr %s\n", bounds[0])
	} else {
		fmt.Printf("clients: autocheck validate -store replicated -addrs %s\n", strings.Join(bounds, ","))
	}
	if cfg.Ingest != nil {
		fmt.Printf("ingest:  autocheck analyze -addr %s -trace T -start N -end M [-chunk-bytes K]\n", bounds[0])
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		nodes := ""
		if n > 1 {
			nodes = fmt.Sprintf(" %d nodes", n)
		}
		fmt.Printf("\n%v: draining and shutting down%s...\n", s, nodes)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		var firstErr error
		for i, srv := range srvs {
			if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
			rep := srv.Stats()
			fmt.Printf("serve: stop %saddr=%s requests=%d shed=%d namespaces=%d puts=%d gets=%d bytes-written=%d bytes-read=%d cache-hits=%d cache-follower-hits=%d cache-misses=%d\n",
				node(i), bounds[i], rep.Requests, rep.Rejected, rep.Namespaces,
				rep.Store.Puts, rep.Store.Gets, rep.Store.BytesWritten, rep.Store.BytesRead,
				rep.Store.CacheHits, rep.Store.CacheFollowerHits, rep.Store.CacheMisses)
		}
		return firstErr
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
