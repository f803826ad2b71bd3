package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autocheck/internal/admission"
	"autocheck/internal/analysis"
	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/obs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// runTraced is the traced run. It replays the named workload in turns
// untraced and with a span around every call it makes into a layer (the
// difference is the tracing overhead), and then climbs the ladder: timed
// calls into each package's public functions on one set of generated
// inputs, every call a span, from which the per-layer metrics are
// computed. The ladder is the same whatever workload is named.
func runTraced(cfg config) (*outcome, error) {
	mk, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	e.cfg.setups = 1
	w, _, err := setUp(e, mk)
	if err != nil {
		return nil, err
	}
	plain, traced, rec := newSamples(), newSamples(), newRecorder()
	deadline := time.Now().Add(time.Duration(cfg.seconds / 3 * float64(time.Second)))
	for r := 0; r < 4 || e.more(r/2, deadline); r++ { // round about, so that drift falls on both
		e.s, e.rec = plain, nil
		if r%2 == 1 {
			e.s, e.rec = traced, rec
		}
		w.round(e)
	}
	if err := w.teardown(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	l := &ladder{
		e: e, rec: rec, m: map[string]float64{},
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	g0, _, tail := latencies(plain)
	g1, _, _ := latencies(traced)
	l.m["trace_run.overhead_pct"] = (g1 - g0) / g0 * 100
	l.m["trace_run.tail_ratio"] = tail
	for _, climb := range []func() error{l.analysis, l.storage, l.service} {
		if err := climb(); err != nil {
			return nil, err
		}
	}
	if err := l.rec.write(tracePath(cfg.workload)); err != nil {
		return nil, err
	}
	l.m["reference.ms"] = quiet(e.refMS)
	return newOutcome(e, perLayer, l.m, l.attempted, l.failed, plain.records+traced.records)
}

type ladder struct {
	e                 *env
	rec               *recorder
	m                 map[string]float64
	attempted, failed int
}

// rung prefixes the ladder's span names, which keeps them apart from the
// spans of the replayed workload's own calls into the same functions.
const rung = "ladder/"

// step times one call into a layer as a span and counts it as an
// operation, failed when fn says its output was wrong.
func (l *ladder) step(name string, fn func() bool) time.Duration {
	l.e.calibrate()
	var ok bool
	d := l.rec.time(rung+name, func() { ok = fn() })
	l.attempted++
	if !ok {
		l.failed++
	}
	return d
}

// total and typical condense the spans of one name, in nanoseconds.
func (l *ladder) total(name string) float64   { return sum(l.rec.ns(rung + name)) }
func (l *ladder) typical(name string) float64 { return median(l.rec.ns(rung + name)) }

// mbPerS is the rate at which the spans of one name handled `bytes`.
func (l *ladder) mbPerS(bytes float64, name string) float64 {
	return bytes / 1e6 / (l.total(name) / 1e9)
}

func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// counter is the discarding observer of interp.trace.ns_per_record.
type counter struct{ n int }

func (c *counter) Observe(*trace.Record) { c.n++ }

// sweep decodes a whole in-memory trace in batches and drops the records.
func sweep(data []byte) bool {
	rd, _, err := trace.NewBytesReader(data)
	if err != nil {
		return false
	}
	var batch trace.RecordBatch
	return trace.ForEachBatch(rd, &batch, func(int, []trace.Record) error { return nil }) == nil
}

// analysis climbs the analysis path, one port at a time so that only one
// port's records are ever materialised.
func (l *ladder) analysis() error {
	ports, err := loadPorts(l.e.cfg.scale)
	if err != nil {
		return err
	}
	svc := analysis.NewService(analysis.Config{})
	defer svc.Close()
	web, err := startService(server.Config{Store: store.Config{Kind: store.KindMemory}, Ingest: &analysis.Config{}})
	if err != nil {
		return err
	}
	defer web.stop()
	client, err := analysis.NewClient(web.addr)
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)
	path := filepath.Join(l.e.dir, "ladder.trace")
	var records, textBytes, binBytes, offlineAlloc, streamAlloc, inProcess, overHTTP float64
	var timing core.Timing
	var inputs []core.Input
	for _, p := range ports {
		opts := core.DefaultOptions()
		opts.Module = p.mod
		streaming := opts
		streaming.Streaming = true
		good := func(res *core.Result, err error) bool { return verdictOK(p, res, err) }

		l.step("interp.Compile", func() bool { _, err := interp.Compile(p.src); return err == nil })
		l.step("interp.RunProgram", func() bool { _, err := interp.RunProgram(p.mod); return err == nil })
		var seen counter
		l.step("interp.TraceProgramInto", func() bool { _, err := interp.TraceProgramInto(p.mod, &seen); return err == nil })
		recs, _, err := interp.TraceProgram(p.mod)
		if err != nil {
			return err
		}
		var text, bin []byte
		l.step("trace.EncodeAll", func() bool { text = trace.EncodeAll(recs); return len(recs) == seen.n })
		l.step("trace.EncodeBinary", func() bool { bin = trace.EncodeBinary(recs); return true })
		records += float64(len(recs))
		textBytes += float64(len(text))
		binBytes += float64(len(bin))
		recs = nil

		// offline-text's op, whole and as the three calls it is made of.
		if err := os.WriteFile(path, text, 0o644); err != nil {
			return err
		}
		l.step("core.AnalyzeFile", func() bool { return good(core.AnalyzeFile(path, p.spec, opts)) })
		var data []byte
		l.step("os.ReadFile", func() bool { data, err = os.ReadFile(path); return err == nil })
		var parsed []trace.Record
		alloc0 := totalAlloc()
		parse := l.step("trace.ParseBytes", func() bool { parsed, err = trace.ParseBytes(data); return err == nil })
		l.step("core.Analyze", func() bool { return good(core.Analyze(parsed, p.spec, opts)) })
		offlineAlloc += totalAlloc() - alloc0
		withDDG := opts
		withDDG.BuildDDG = true
		l.step("core.Analyze.BuildDDG", func() bool { return good(core.Analyze(parsed, p.spec, withDDG)) })
		l.step("core.Engine", func() bool {
			eng, err := core.NewEngine(p.spec, opts)
			if err != nil {
				return false
			}
			for i := range parsed {
				eng.Observe(&parsed[i])
			}
			return good(eng.Finish())
		})
		parsed = nil
		if p.bench.Name == "CG" { // the largest text trace, above ParseBytesParallel's serial fallback
			par := l.step("trace.ParseBytesParallel", func() bool { _, err := trace.ParseBytesParallel(data, nproc); return err == nil })
			l.m["trace.decode_text_parallel.speedup"] = float64(parse) / float64(par)
		}
		data = nil
		l.step("trace.ParseBinary", func() bool { _, err := trace.ParseBinary(bin); return err == nil })
		l.step("trace.sweep.text", func() bool { return sweep(text) })
		l.step("trace.sweep.binary", func() bool { return sweep(bin) })
		text = nil

		// stream-binary's op, with the program's own phase timing.
		alloc0 = totalAlloc()
		l.step("core.AnalyzeBytes.Streaming", func() bool {
			res, err := core.AnalyzeBytes(bin, p.spec, streaming)
			if err == nil {
				timing.Pre += res.Timing.Pre
				timing.Dep += res.Timing.Dep
				timing.Identify += res.Timing.Identify
				timing.Total += res.Timing.Total
			}
			return good(res, err)
		})
		streamAlloc += totalAlloc() - alloc0

		// the ingest service called directly, then the same session over HTTP.
		l.step("analysis.Service.OneShot", func() bool { return good(svc.OneShot("ladder", p.spec, bin, true)) })
		t0 := time.Now()
		st, err := svc.Create("ladder", p.spec, true)
		if err != nil {
			return err
		}
		for seq, chunk := range chunksOf(bin) {
			l.step("analysis.Service.Chunk", func() bool { return svc.Chunk(st.ID, seq, chunk) == nil })
		}
		l.step("analysis.Service.Finish", func() bool { return good(svc.Finish(st.ID)) })
		inProcess += float64(time.Since(t0))
		if err := svc.Delete(st.ID); err != nil {
			return err
		}
		p.data = bin
		l.e.s = newSamples()
		streamSession(l.e, client, p)
		l.attempted, l.failed = l.attempted+1, l.failed+l.e.s.failed
		overHTTP += sum(l.e.s.ms[p.bench.Name]) * 1e6

		inputs = append(inputs, core.Input{Name: p.bench.Name, Spec: p.spec, Opts: streaming, Data: bin})
	}
	many := func(workers int) func() bool {
		return func() bool {
			results, err := core.AnalyzeMany(inputs, workers)
			for i, res := range results {
				if !verdictOK(ports[i], res, err) {
					return false
				}
			}
			return true
		}
	}
	serial := l.step("core.AnalyzeMany.1", many(1))
	pooled := l.step("core.AnalyzeMany.nproc", many(nproc))

	m := l.m
	m["compile.ms"] = l.total("interp.Compile") / 1e6
	m["interp.run.ns_per_record"] = l.total("interp.RunProgram") / records
	m["interp.trace.ns_per_record"] = l.total("interp.TraceProgramInto") / records
	m["trace.encode_text.mb_s"] = l.mbPerS(textBytes, "trace.EncodeAll")
	m["trace.encode_binary.mb_s"] = l.mbPerS(binBytes, "trace.EncodeBinary")
	m["trace.decode_text.mb_s"] = l.mbPerS(textBytes, "trace.ParseBytes")
	m["trace.decode_binary.mb_s"] = l.mbPerS(binBytes, "trace.ParseBinary")
	m["trace.sweep_text.ns_per_record"] = l.total("trace.sweep.text") / records
	m["trace.sweep_binary.ns_per_record"] = l.total("trace.sweep.binary") / records
	m["trace.binary_text_ratio"] = binBytes / textBytes
	m["core.offline.ns_per_record"] = l.total("core.Analyze") / records
	m["core.engine.ns_per_record"] = l.total("core.Engine") / records
	m["core.ddg.ns_per_record"] = (l.total("core.Analyze.BuildDDG") - l.total("core.Analyze")) / records
	m["core.pre.share"] = float64(timing.Pre) / float64(timing.Total)
	m["core.dep.share"] = float64(timing.Dep) / float64(timing.Total)
	m["core.identify.share"] = float64(timing.Identify) / float64(timing.Total)
	m["core.many.speedup"] = float64(serial) / float64(pooled)
	m["core.offline.alloc_bytes_per_record"] = offlineAlloc / records
	m["core.stream.alloc_bytes_per_record"] = streamAlloc / records
	m["analysis.oneshot.ms"] = l.total("analysis.Service.OneShot") / 1e6
	m["analysis.chunk.us"] = l.typical("analysis.Service.Chunk") / 1e3
	m["analysis.finish.ms"] = l.typical("analysis.Service.Finish") / 1e6
	m["analysis.http.overhead_pct"] = (overHTTP - inProcess) / inProcess * 100
	whole := l.total("core.AnalyzeFile")
	m["ladder.offline-text.residual_pct"] = (whole - l.total("os.ReadFile") - l.total("trace.ParseBytes") - l.total("core.Analyze")) / whole * 100
	return nil
}

// put is one object of the replayed sequence.
type put struct {
	key      string
	sections []store.Section
	sum      uint32
}

// capture is the store.Backend under checkpoint.encode.ms: it keeps what
// a Context hands it and stores nothing.
type capture struct{ puts []put }

func (c *capture) Put(key string, sections []store.Section) error {
	c.puts = append(c.puts, put{key, sections, checksum(sections)})
	return nil
}
func (c *capture) Get(string) ([]store.Section, error) { return nil, store.ErrNotFound }
func (c *capture) List() ([]string, error)             { return nil, nil }
func (c *capture) Delete(string) error                 { return nil }
func (c *capture) Stats() store.Stats                  { return store.Stats{} }
func (c *capture) Flush() error                        { return nil }
func (c *capture) Close() error                        { return nil }

// replay puts the sequence into b and gets it back, each call a span
// name.put or name.get, then closes b. Every rung replays the same
// sequence, so rungs differ by the layer alone.
func (l *ladder) replay(name string, b store.Backend, seq []put) {
	for _, p := range seq {
		l.step(name+".put", func() bool { return b.Put(p.key, p.sections) == nil })
	}
	l.step(name+".flush", func() bool { return b.Flush() == nil })
	for _, p := range seq {
		l.step(name+".get", func() bool {
			got, err := b.Get(p.key)
			return err == nil && checksum(got) == p.sum
		})
	}
	l.step(name+".close", func() bool { return b.Close() == nil })
}

// putUS and getUS are a replayed rung's medians in microseconds.
func (l *ladder) putUS(name string) float64 { return l.typical(name+".put") / 1e3 }
func (l *ladder) getUS(name string) float64 { return l.typical(name+".get") / 1e3 }

// storage climbs the checkpoint path below HTTP: the checkpoint layer
// over a backend that stores nothing, then the captured section sequence
// into each store layer.
func (l *ladder) storage() error {
	n := l.e.cfg.ring
	rng := rand.New(rand.NewSource(l.e.cfg.seed))
	state := newCells(rng)
	machine := state.machine()
	// checkpoint drives n iterations of the synthetic application through ctx.
	checkpointAll := func(name string, ctx *checkpoint.Context) {
		protect(ctx)
		for i := 1; i <= n; i++ {
			state.step(rng, machine)
			l.step(name, func() bool { return ctx.Checkpoint(machine, int64(i)) == nil })
		}
	}
	discard := &capture{}
	ctx, err := checkpoint.NewContextBackend(discard, checkpoint.L1)
	if err != nil {
		return err
	}
	checkpointAll("checkpoint.Checkpoint.discard", ctx)
	seq := discard.puts
	var seqBytes float64
	for _, p := range seq {
		seqBytes += float64(store.EncodedSize(p.sections))
		var blob []byte
		l.step("store.EncodeSections", func() bool { blob = store.EncodeSections(p.sections); return true })
		l.step("store.DecodeSections", func() bool {
			got, err := store.DecodeSections(blob)
			return err == nil && checksum(got) == p.sum
		})
	}

	dir := func(name string) string { return filepath.Join(l.e.dir, "ladder-"+name) }
	l.replay("store.memory", store.NewMemory(), seq)
	file, err := store.NewFile(dir("file"), false)
	if err != nil {
		return err
	}
	l.replay("store.file", file, seq)
	synced, err := store.NewFile(dir("file-sync"), true)
	if err != nil {
		return err
	}
	l.replay("store.file_sync", synced, seq[:min(len(seq), 16)]) // an fsync each: a few are enough
	sharded, err := store.NewSharded(dir("sharded"), store.DefaultShardWorkers, false)
	if err != nil {
		return err
	}
	l.replay("store.sharded", sharded, seq)
	under := store.NewMemory()
	l.replay("store.incremental", store.NewIncremental(under, 0, 0), seq)
	async := store.NewAsync(store.NewMemory())
	for _, p := range seq {
		l.step("store.async.put", func() bool { return async.Put(p.key, p.sections) == nil })
		l.step("store.async.flush", func() bool { return async.Flush() == nil })
	}
	if err := async.Close(); err != nil {
		return err
	}
	// The cache over a filled store, read in a seeded random order: once
	// smaller than the ring and once large enough to hold it.
	hitRate := func(name string, cacheBytes int64) float64 {
		mem := store.NewMemory()
		for _, p := range seq {
			mem.Put(p.key, p.sections)
		}
		cached := store.NewCached(mem, cacheBytes)
		for _, p := range seq {
			cached.Get(p.key)
		}
		before := cached.Stats()
		for i := 0; i < 4*len(seq); i++ {
			p := seq[rng.Intn(len(seq))]
			l.step(name, func() bool {
				got, err := cached.Get(p.key)
				return err == nil && checksum(got) == p.sum
			})
		}
		after := cached.Stats()
		hits := float64(after.CacheHits - before.CacheHits)
		return hits / (hits + float64(after.CacheMisses-before.CacheMisses))
	}
	small := int64(seqBytes) * 8 / 18 // the 8 MB cache under the 18 MB ring, kept in proportion
	m := l.m
	m["store.cached.hit_rate_small"] = hitRate("store.cached.get.small", small)
	m["store.cached.hit_rate_fit"] = hitRate("store.cached.get.fit", 4*int64(seqBytes))

	// The checkpoint layer over memory: restart, and what level 2 adds.
	mem := store.NewMemory()
	if ctx, err = checkpoint.NewContextBackend(mem, checkpoint.L1); err != nil {
		return err
	}
	checkpointAll("checkpoint.Checkpoint.memory", ctx)
	keys, _ := mem.List()
	for i := 0; i < 16; i++ {
		fresh := emptyMachine()
		l.step("checkpoint.Restart.memory", func() bool {
			iter, err := ctx.Restart(fresh, nil)
			return err == nil && iter == int64(n) && state.equal(fresh)
		})
		l.step("store.memory.get.newest", func() bool { _, err := mem.Get(keys[len(keys)-1]); return err == nil })
	}
	if ctx, err = checkpoint.NewContextBackend(store.NewMemory(), checkpoint.L2); err != nil {
		return err
	}
	checkpointAll("checkpoint.Checkpoint.memory.L2", ctx)

	// ckpt-local's op and its parts: the stack with and without the
	// checkpoint layer above it, and with telemetry armed.
	local, err := checkpoint.NewContextStore(localStack(dir("local")), checkpoint.L1)
	if err != nil {
		return err
	}
	local.Retain(8)
	checkpointAll("checkpoint.Checkpoint.local", local)
	if err := local.Flush(); err != nil {
		return err
	}
	m["checkpoint.stored_bytes_per_byte"] = float64(local.StoreStats().BytesWritten) / float64(local.TotalBytes())
	if err := local.Close(); err != nil {
		return err
	}
	stack := func(name string, registry *obs.Registry) error {
		cfg := localStack(dir(name))
		cfg.Obs = registry
		base, err := store.Open(cfg)
		if err != nil {
			return err
		}
		b := store.Decorate(base, cfg)
		for _, p := range seq {
			l.step(name, func() bool { return b.Put(p.key, p.sections) == nil && b.Flush() == nil })
		}
		return b.Close()
	}
	if err := errors.Join(stack("store.local.put", nil), stack("store.local.put.obs", obs.New())); err != nil {
		return err
	}

	ctl := admission.New(admission.Config{MaxInFlight: server.DefaultMaxInFlight})
	const acquires = 20000
	l.step("admission.Acquire", func() bool {
		for i := 0; i < acquires; i++ {
			ticket, err := ctl.Acquire("ladder", admission.Interactive)
			if err != nil {
				return false
			}
			ticket.Release()
		}
		return true
	})

	m["checkpoint.encode.ms"] = l.typical("checkpoint.Checkpoint.discard") / 1e6
	m["checkpoint.restore.ms"] = (l.typical("checkpoint.Restart.memory") - l.typical("store.memory.get.newest")) / 1e6
	m["checkpoint.l2.put.us"] = (l.typical("checkpoint.Checkpoint.memory.L2") - l.typical("checkpoint.Checkpoint.memory")) / 1e3
	m["store.encode_sections.mb_s"] = l.mbPerS(seqBytes, "store.EncodeSections")
	m["store.decode_sections.mb_s"] = l.mbPerS(seqBytes, "store.DecodeSections")
	for _, name := range []string{"store.memory", "store.file", "store.sharded", "store.incremental"} {
		m[name+".put.us"], m[name+".get.us"] = l.putUS(name), l.getUS(name)
	}
	m["store.file_sync.put.us"] = l.putUS("store.file_sync")
	m["store.incremental.bytes_ratio"] = float64(under.Stats().BytesWritten) / seqBytes
	m["store.async.put.us"] = l.typical("store.async.put") / 1e3
	m["store.async.flush.us"] = l.typical("store.async.flush") / 1e3
	m["store.cached.get_hit.us"] = l.typical("store.cached.get.fit") / 1e3
	m["admission.acquire.ns"] = l.total("admission.Acquire") / acquires
	plain := l.total("store.local.put")
	m["obs.enabled.put_overhead_pct"] = (l.total("store.local.put.obs") - plain) / plain * 100
	op := l.typical("checkpoint.Checkpoint.local")
	m["ladder.ckpt-local.residual_pct"] = (op - l.typical("checkpoint.Checkpoint.discard") - l.typical("store.local.put")) / op * 100

	return l.remote(seq)
}

// remote replays the sequence through the service: the handler alone,
// one client over loopback, and a three-node quorum.
func (l *ladder) remote(seq []put) error {
	memory := server.Config{Store: store.Config{Kind: store.KindMemory}}
	srv, err := server.New(memory)
	if err != nil {
		return err
	}
	serve := func(method, key string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(method, "/v1/ladder/objects/"+key, bytes.NewReader(body)))
		return w
	}
	for _, p := range seq {
		blob := store.EncodeSections(p.sections)
		l.step("server.Handler.put", func() bool { return serve(http.MethodPut, p.key, blob).Code == http.StatusNoContent })
	}
	for _, p := range seq {
		l.step("server.Handler.get", func() bool {
			w := serve(http.MethodGet, p.key, nil)
			got, err := store.DecodeSections(w.Body.Bytes())
			return w.Code == http.StatusOK && err == nil && checksum(got) == p.sum
		})
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}

	var nodes []*service
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	client := func() (*store.Remote, error) {
		n, err := startService(memory)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		return store.NewRemote(n.addr, "ladder")
	}
	one, err := client()
	if err != nil {
		return err
	}
	l.replay("store.remote", one, seq)
	var replicas []store.Backend
	for i := 0; i < 3; i++ {
		r, err := client()
		if err != nil {
			return err
		}
		replicas = append(replicas, r)
	}
	quorum, err := store.NewReplicated(replicas, store.ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, HedgeAfter: -1})
	if err != nil {
		return err
	}
	l.replay("store.replicated", quorum, seq)

	m := l.m
	m["server.handler.put.us"] = l.putUS("server.Handler")
	m["server.handler.get.us"] = l.getUS("server.Handler")
	m["store.remote.put.us"], m["store.remote.get.us"] = l.putUS("store.remote"), l.getUS("store.remote")
	m["server.wire.put.us"] = m["store.remote.put.us"] - m["server.handler.put.us"]
	m["store.replicated.put_w2.us"] = l.putUS("store.replicated")
	m["store.replicated.get_r2.us"] = l.getUS("store.replicated")
	return nil
}

// service replays ckpt-service briefly, first one of its tenants alone
// and then both: what the op costs beyond a single client over loopback
// (the handler and wire rungs) is what the callers and the server
// sharing two cores adds. It also reports how often admission shed them.
func (l *ladder) service() error {
	w := &ckptService{}
	l.e.reseed()
	if err := w.setup(l.e); err != nil {
		return errors.Join(err, w.teardown())
	}
	opMS := func(tenants []*tenant) float64 {
		l.e.s = newSamples()
		roundOf(l.e, tenants)
		l.attempted, l.failed = l.attempted+l.e.s.attempted, l.failed+l.e.s.failed
		return (median(l.e.s.ms["put"]) + median(l.e.s.ms["get"])) / 2
	}
	alone := opMS(w.tenants[:1])
	together := opMS(w.tenants[:])
	stats := w.svc.srv.Stats()
	l.m["ladder.ckpt-service.residual_pct"] = (together - alone) / together * 100
	l.m["admission.shed_share"] = float64(stats.Rejected) / float64(stats.Requests+stats.Rejected)
	return w.teardown()
}
