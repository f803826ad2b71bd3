package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// collector keeps what the tracer hands a BatchObserver: the records,
// copied out of the recycled batch, and their template ids.
type collector struct {
	recs []trace.Record
	ids  []uint32
}

func (c *collector) Observe(r *trace.Record) { c.recs = append(c.recs, r.Clone()) }
func (c *collector) ObserveBatch(recs []trace.Record, ids []uint32) {
	for i := range recs {
		c.recs = append(c.recs, recs[i].Clone())
	}
	c.ids = append(c.ids, ids...)
}

// BenchmarkEngine feeds the engine the traces of the 14 ports at scale 24:
// one op is the 14 analyses, default options with the module. Every
// port's records and template ids are materialised once, before the
// timer starts, so no tracing and none of its garbage lands in the timed
// feed. The records come as one batch with the tracer's template ids
// (ids) or without them (no-ids), so the two report the engine in
// ns/record on the tracer's templates and on shapes the engine
// hash-conses from the records' static halves. Like every benchmark of
// this file it also reports what the collector cost an op (gcMeter).
//
//	go test -run '^$' -bench Engine -benchmem ./internal/core/
func BenchmarkEngine(b *testing.B) {
	type port struct {
		mod  *ir.Module
		spec core.LoopSpec
		c    collector
	}
	var ports []port
	records := 0
	for _, p := range progs.All() {
		mod, err := interp.Compile(p.Source(24))
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		spec, err := p.Spec(24)
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		ports = append(ports, port{mod: mod, spec: spec})
		c := &ports[len(ports)-1].c
		if _, err := interp.TraceProgramInto(mod, c); err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		records += len(c.recs)
	}
	for _, withIDs := range []bool{false, true} {
		name := "no-ids"
		if withIDs {
			name = "ids"
		}
		b.Run(name, func(b *testing.B) {
			gc := newGCMeter()
			for i := 0; i < b.N; i++ {
				gc.op(func() {
					for k := range ports {
						p := &ports[k]
						ids := p.c.ids
						if !withIDs {
							ids = nil
						}
						opts := core.DefaultOptions()
						opts.Module = p.mod
						e, err := core.NewEngine(p.spec, opts)
						if err != nil {
							b.Fatal(err)
						}
						e.ObserveBatch(p.c.recs, ids)
						if _, err := e.Finish(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
			gc.report(b)
		})
	}
}

// BenchmarkAnalyzeOnline is the online analysis of the 14 ports at scale
// 24, as the paper's §IX mode runs it: one op is, per port, Compile,
// NewEngine, TraceProgramInto into the engine and Finish, default options
// with the module, all timed. It reports ns/record and, with -benchmem,
// the allocations of the whole op.
//
//	go test -run '^$' -bench AnalyzeOnline -benchmem ./internal/core/
func BenchmarkAnalyzeOnline(b *testing.B) {
	type port struct {
		src  string
		spec core.LoopSpec
	}
	var ports []port
	for _, p := range progs.All() {
		spec, err := p.Spec(24)
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		ports = append(ports, port{p.Source(24), spec})
	}
	records := 0
	gc := newGCMeter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc.op(func() {
			for _, p := range ports {
				mod, err := interp.Compile(p.src)
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.Module = mod
				e, err := core.NewEngine(p.spec, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := interp.TraceProgramInto(mod, e); err != nil {
					b.Fatal(err)
				}
				res, err := e.Finish()
				if err != nil {
					b.Fatal(err)
				}
				records += res.Stats.Records
			}
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	gc.report(b)
}

// BenchmarkAnalyzeFile is the offline analysis of the 14 ports' trace
// files at scale 24, written by the tracer in ACTB (actb) and in text
// (text): one op is AnalyzeFile of each of the 14 files, default options
// with the module. It is the go test twin of the stream-binary and
// offline-text workloads of benchmark/run.sh, and reports ns/record and,
// with -benchmem, the allocations of the whole op. The -many variants are
// one AnalyzeMany of the 14 files with GOMAXPROCS workers. The files are
// written before the timer starts.
//
//	go test -run '^$' -bench AnalyzeFile -benchmem ./internal/core/
func BenchmarkAnalyzeFile(b *testing.B) {
	type port struct {
		path string
		spec core.LoopSpec
		mod  *ir.Module
	}
	dir := b.TempDir()
	for _, f := range []trace.Format{trace.FormatBinary, trace.FormatText} {
		var ports []port
		for _, p := range progs.All() {
			spec, err := p.Spec(24)
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			mod, err := interp.Compile(p.Source(24))
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			path := filepath.Join(dir, p.Name+"."+f.String())
			file, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			_, err = interp.TraceProgramTo(mod, trace.NewRecordWriter(file, f))
			if cerr := file.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			ports = append(ports, port{path, spec, mod})
		}
		name := "text"
		if f == trace.FormatBinary {
			name = "actb"
		}
		b.Run(name, func(b *testing.B) {
			records := 0
			gc := newGCMeter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gc.op(func() {
					for _, p := range ports {
						opts := core.DefaultOptions()
						opts.Module = p.mod
						res, err := core.AnalyzeFile(p.path, p.spec, opts)
						if err != nil {
							b.Fatal(err)
						}
						records += res.Stats.Records
					}
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
			gc.report(b)
		})
		b.Run(name+"-many", func(b *testing.B) {
			inputs := make([]core.Input, len(ports))
			for i, p := range ports {
				opts := core.DefaultOptions()
				opts.Module = p.mod
				inputs[i] = core.Input{Name: p.path, Spec: p.spec, Opts: opts, Path: p.path}
			}
			gc := newGCMeter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gc.op(func() {
					if _, err := core.AnalyzeMany(inputs, 0); err != nil {
						b.Fatal(err)
					}
				})
			}
			gc.report(b)
		})
	}
}
