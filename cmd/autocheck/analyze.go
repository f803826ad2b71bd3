package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"time"

	"autocheck"
	"autocheck/internal/analysis"
	"autocheck/internal/trace"
)

// loopFlags name a trace source and its main computation loop; analyze
// and explain share them.
type loopFlags struct {
	file, trace, fn string
	start, end      int
}

func addLoopFlags(fs *flag.FlagSet) *loopFlags {
	f := &loopFlags{}
	fs.StringVar(&f.file, "file", "", "mini-C source file (compiled and traced)")
	fs.StringVar(&f.trace, "trace", "", "pre-generated trace file, text or binary (alternative to -file)")
	fs.StringVar(&f.fn, "func", "main", "function containing the main computation loop")
	fs.IntVar(&f.start, "start", 0, "main loop start line")
	fs.IntVar(&f.end, "end", 0, "main loop end line")
	return f
}

func (f *loopFlags) spec(cmd string) (autocheck.LoopSpec, error) {
	if (f.file == "" && f.trace == "") || f.start == 0 || f.end == 0 {
		return autocheck.LoopSpec{}, fmt.Errorf("%s needs -file or -trace, plus -start and -end", cmd)
	}
	return autocheck.LoopSpec{Function: f.fn, StartLine: f.start, EndLine: f.end}, nil
}

// analyzeLocal runs the analysis in this process. A -trace file is
// streamed from disk as is (induction detection then uses the dynamic
// heuristic); a -file program is compiled and traced into records first —
// or, online, analyzed while it runs with no trace bytes at all.
func analyzeLocal(f *loopFlags, spec autocheck.LoopSpec, opts autocheck.Options, online bool) (*autocheck.Result, error) {
	if f.trace != "" {
		return autocheck.AnalyzeFile(f.trace, spec, opts)
	}
	mod, err := compileFile(f.file)
	if err != nil {
		return nil, err
	}
	opts.Module = mod
	if online {
		res, _, err := autocheck.AnalyzeProgramOnline(mod, spec, opts)
		return res, err
	}
	recs, _, err := autocheck.TraceProgram(mod)
	if err != nil {
		return nil, err
	}
	return autocheck.Analyze(recs, spec, opts)
}

func cmdAnalyze(fs *flag.FlagSet) func() error {
	loop := addLoopFlags(fs)
	online := fs.Bool("online", false, "feed the analysis engine straight from the tracer while the program runs: no trace bytes at all (needs -file)")
	ddg := fs.Bool("ddg", false, "also print the contracted DDG (any mode but -addr)")
	addr := fs.String("addr", "", "ship the trace to the \"serve -ingest\" service at HOST:PORT instead of analyzing locally (one-shot POST by default)")
	chunkBytes := fs.Int("chunk-bytes", 0, "with -addr: stream through a resumable session in chunks of this size; the client resumes across service restarts (0 = one-shot)")
	chunkDelay := fs.Duration("chunk-delay", 0, "with -addr: pause between chunk uploads (restart smoke tests)")
	namespace := fs.String("ns", "default", "with -addr: tenant namespace for admission control")
	return func() error {
		spec, err := loop.spec("analyze")
		if err != nil {
			return err
		}
		var res *autocheck.Result
		switch {
		case *addr != "":
			if *online || *ddg {
				return fmt.Errorf("analyze -addr ships the trace to a service; -online and -ddg are local modes")
			}
			res, err = analyzeRemote(*addr, *namespace, loop, spec, *chunkBytes, *chunkDelay)
		case *online && (loop.file == "" || loop.trace != ""):
			return fmt.Errorf("analyze -online runs the program with the engine attached and needs -file, not -trace (without -online a pre-generated trace is streamed from disk)")
		default:
			opts := autocheck.DefaultOptions()
			opts.BuildDDG = *ddg
			res, err = analyzeLocal(loop, spec, opts, *online)
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
}

// analyzeRemote ships a trace to the ingest service, whose result prints
// through the same renderer as a local run, so the outputs are
// byte-identical (modulo the timing line, which reports the service's
// clock). With chunkBytes > 0 the trace streams through a resumable
// session — the client rides out service restarts mid-stream.
func analyzeRemote(addr, namespace string, f *loopFlags, spec autocheck.LoopSpec, chunkBytes int, chunkDelay time.Duration) (*autocheck.Result, error) {
	var data []byte
	var err error
	if f.trace != "" {
		data, err = os.ReadFile(f.trace)
	} else {
		var mod *autocheck.Module
		if mod, err = compileFile(f.file); err == nil {
			data, _, err = autocheck.TraceProgramBinary(mod)
		}
	}
	if err != nil {
		return nil, err
	}
	cli, err := analysis.NewClient(addr)
	if err != nil {
		return nil, err
	}
	cli.Namespace = namespace
	cli.ChunkDelay = chunkDelay
	if chunkBytes > 0 {
		return cli.AnalyzeChunked(data, spec, chunkBytes)
	}
	return cli.Analyze(data, spec)
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

func cmdTrace(fs *flag.FlagSet) func() error {
	file := fs.String("file", "", "mini-C source file")
	out := fs.String("o", "", "output trace file (default stdout)")
	formatName := fs.String("trace-format", "text", "output encoding: text or binary (binary is emitted by the tracer without materializing records)")
	return func() error {
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
		// The tracer streams into the encoder; no []Record is materialized.
		if *out == "" {
			_, err := autocheck.TraceProgramTo(mod, trace.NewRecordWriter(os.Stdout, format))
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		w := trace.NewRecordWriter(f, format)
		progOut, err := autocheck.TraceProgramTo(mod, w)
		// Close errors count: filesystems may defer write failures to close,
		// and reporting success over a truncated file would let a later
		// analyze run silently accept a partial trace.
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
}

func cmdConvert(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "input trace file (format auto-detected)")
	out := fs.String("out", "", "output trace file")
	to := fs.String("to", "", "target encoding: text or binary (default: the other one)")
	return func() error {
		if *in == "" || *out == "" {
			return fmt.Errorf("convert needs -in and -out")
		}
		src, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer src.Close()
		inInfo, err := src.Stat()
		if err != nil {
			return err
		}
		// The trace streams from one file to the other: creating the
		// output over the input would truncate it before it is read.
		if outInfo, err := os.Stat(*out); err == nil && os.SameFile(inInfo, outInfo) {
			return fmt.Errorf("convert: -in and -out name the same file")
		}
		rd, from, err := trace.NewAutoReader(src)
		if err != nil {
			return err
		}
		target := trace.FormatText
		if from == trace.FormatText {
			target = trace.FormatBinary
		}
		if *to != "" {
			if target, err = trace.ParseFormat(*to); err != nil {
				return err
			}
		}
		dst, err := os.Create(*out)
		if err != nil {
			return err
		}
		// Each record is encoded as it is decoded: no []Record is
		// materialized.
		w := trace.NewRecordWriter(dst, target)
		var werr error
		err = rd.ReadInto(func(recs []trace.Record, _ []uint32) {
			for i := range recs {
				if werr == nil {
					werr = w.Write(&recs[i])
				}
			}
		})
		err = cmp.Or(err, werr, w.Flush())
		outInfo, serr := dst.Stat()
		if err = cmp.Or(err, serr, dst.Close()); err != nil {
			// Don't leave a well-formed-looking prefix of the trace behind.
			os.Remove(*out)
			return err
		}
		fmt.Printf("%s (%s, %d bytes) -> %s (%s, %d bytes): %d records, %.2fx size\n",
			*in, from, inInfo.Size(), *out, target, outInfo.Size(), w.Count(),
			float64(outInfo.Size())/float64(inInfo.Size()))
		return nil
	}
}
