package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"autocheck/internal/analysis"
	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// workload is one closed loop. setup builds the inputs from e.rng and
// starts what the loop talks to. A round is a fixed amount of work,
// recorded into e.s: with two callers both start it together and it ends
// when the second finishes.
type workload interface {
	setup(e *env) error
	round(e *env)
	teardown() error
}

var workloads = []struct {
	name, why string
	make      func() workload
}{
	{"offline-text", "the paper's primary mode, core.AnalyzeFile on text trace files of the 14 ports: text decode is most of the op and the records are materialised",
		func() workload { return &fileAnalysis{format: trace.FormatText} }},
	{"stream-binary", "core.AnalyzeFile with Options.Streaming on ACTB files: the core sweeps dominate, memory is bounded and the text decoder is bypassed",
		func() workload { return &fileAnalysis{format: trace.FormatBinary} }},
	{"trace-online", "compile, interpret and feed core.Engine record by record: front end and interpreter dominate and no trace bytes exist",
		func() workload { return &traceOnline{} }},
	{"ckpt-local", "what an application pays per checkpoint and restart: checkpoint.Context over file+incremental+async with hot and read-mostly variables, no HTTP",
		func() workload { return &ckptLocal{} }},
	{"ckpt-service", "two tenants put and get 256 KiB objects through store.Remote against the in-process service: wire, server and admission are the whole op",
		func() workload { return &ckptService{} }},
	{"ingest-sessions", "two analysis.Client callers stream ACTB traces as chunked sessions: ingest service, chunk persistence and the per-record engine behind HTTP",
		func() workload { return &ingestSessions{} }},
}

// ---- the 14 ports as analysis inputs ----

type port struct {
	bench *progs.Benchmark
	src   string
	spec  core.LoopSpec
	mod   *ir.Module
	path  string // encoded trace file (offline-text, stream-binary)
	data  []byte // encoded trace in memory (ingest-sessions)
}

func loadPorts(scale int) ([]*port, error) {
	var ports []*port
	for _, b := range progs.All() {
		p := &port{bench: b, src: b.Source(scale)}
		var err error
		if p.spec, err = b.Spec(scale); err != nil {
			return nil, err
		}
		if p.mod, err = interp.Compile(p.src); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		ports = append(ports, p)
	}
	return ports, nil
}

// verdictOK holds a result against the port's hand-written Table II
// row, which does not come from the engine under test.
func verdictOK(p *port, res *core.Result, err error) bool {
	if err != nil || res == nil || len(res.Critical) != len(p.bench.Expected) {
		return false
	}
	for _, c := range res.Critical {
		if t, ok := p.bench.Expected[c.Name]; !ok || t != c.Type {
			return false
		}
	}
	return true
}

// verdict is verdictOK plus the record count of a verified trace.
func (e *env) verdict(p *port, res *core.Result, err error) bool {
	if !verdictOK(p, res, err) {
		return false
	}
	e.s.addRecords(res.Stats.Records)
	return true
}

// ---- offline-text, stream-binary ----

type fileAnalysis struct {
	format trace.Format
	ports  []*port
	order  []int
}

func (w *fileAnalysis) setup(e *env) error {
	ports, err := loadPorts(e.cfg.scale)
	if err != nil {
		return err
	}
	for _, p := range ports {
		p.path = filepath.Join(e.dir, p.bench.Name+".trace")
		f, err := os.Create(p.path)
		if err != nil {
			return err
		}
		_, err = interp.TraceProgramTo(p.mod, trace.NewRecordWriter(f, w.format))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: tracing: %w", p.bench.Name, err)
		}
	}
	w.ports, w.order = ports, e.rng.Perm(len(ports))
	return nil
}

func (w *fileAnalysis) round(e *env) {
	for _, i := range w.order {
		p := w.ports[i]
		opts := core.DefaultOptions()
		opts.Module = p.mod
		opts.Streaming = w.format == trace.FormatBinary
		e.op(p.bench.Name, func(c call) (time.Duration, bool) {
			t0 := time.Now()
			var res *core.Result
			var err error
			c.do("core.AnalyzeFile", func() { res, err = core.AnalyzeFile(p.path, p.spec, opts) })
			ok := e.verdict(p, res, err)
			return time.Since(t0), ok
		})
	}
}

func (w *fileAnalysis) teardown() error { return nil }

// ---- trace-online ----

type traceOnline struct {
	ports []*port
	order []int
}

func (w *traceOnline) setup(e *env) error {
	ports, err := loadPorts(e.cfg.scale)
	if err != nil {
		return err
	}
	w.ports, w.order = ports, e.rng.Perm(len(ports))
	return nil
}

func (w *traceOnline) round(e *env) {
	for _, i := range w.order {
		p := w.ports[i]
		e.op(p.bench.Name, func(c call) (time.Duration, bool) {
			t0 := time.Now()
			var mod *ir.Module
			var eng *core.Engine
			var res *core.Result
			var err error
			c.do("interp.Compile", func() { mod, err = interp.Compile(p.src) })
			if err == nil {
				opts := core.DefaultOptions()
				opts.Module = mod
				c.do("core.NewEngine", func() { eng, err = core.NewEngine(p.spec, opts) })
			}
			if err == nil {
				c.do("interp.TraceProgramInto", func() { _, err = interp.TraceProgramInto(mod, eng) })
			}
			if err == nil {
				c.do("core.Engine.Finish", func() { res, err = eng.Finish() })
			}
			ok := e.verdict(p, res, err)
			return time.Since(t0), ok
		})
	}
}

func (w *traceOnline) teardown() error { return nil }

// ---- the in-process service ----

// service is an internal/server instance on a loopback listener.
type service struct {
	srv  *server.Server
	addr string
	done chan error
}

func startService(cfg server.Config) (*service, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(l) }()
	return s, nil
}

// stop shuts the service down and waits for its accept loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	return errors.Join(err, <-s.done)
}

// ---- ingest-sessions ----

const (
	callers    = 2 // the sandbox has two cores
	chunkBytes = analysis.DefaultChunkBytes
)

type ingestSessions struct {
	ports   []*port
	svc     *service
	clients [callers]*analysis.Client
	orders  [callers][]int
}

func (w *ingestSessions) setup(e *env) error {
	ports, err := loadPorts(e.cfg.scale)
	if err != nil {
		return err
	}
	for _, p := range ports {
		if p.data, _, err = interp.TraceProgramBinary(p.mod); err != nil {
			return fmt.Errorf("%s: tracing: %w", p.bench.Name, err)
		}
	}
	w.ports = ports
	w.svc, err = startService(server.Config{
		Store:  store.Config{Kind: store.KindMemory},
		Ingest: &analysis.Config{},
	})
	if err != nil {
		return err
	}
	for i := range w.clients {
		if w.clients[i], err = analysis.NewClient(w.svc.addr); err != nil {
			return err
		}
		w.clients[i].Namespace = fmt.Sprintf("tenant%d", i)
		w.orders[i] = e.rng.Perm(len(ports))
	}
	return nil
}

func (w *ingestSessions) round(e *env) {
	together(len(w.clients), func(i int) {
		for _, j := range w.orders[i] {
			streamSession(e, w.clients[i], w.ports[j])
		}
	})
}

// together runs fn for callers 0 to n-1 at once and waits for them all.
func together(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// chunksOf cuts an encoded trace into the chunks a session sends.
func chunksOf(data []byte) iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		for seq, off := 0, 0; off < len(data); seq, off = seq+1, off+chunkBytes {
			if !yield(seq, data[off:min(off+chunkBytes, len(data))]) {
				return
			}
		}
	}
}

// streamSession streams one trace as a chunked session; the verdict is
// timed from NewSession to the answer of Finish, and the Delete after it
// only costs wall time.
func streamSession(e *env, cl *analysis.Client, p *port) {
	e.op(p.bench.Name, func(c call) (time.Duration, bool) {
		t0 := time.Now()
		var sess *analysis.Session
		var res *core.Result
		var err error
		c.do("analysis.Client.NewSession", func() { sess, err = cl.NewSession(p.spec) })
		if err != nil {
			return 0, false
		}
		for seq, chunk := range chunksOf(p.data) {
			if err != nil {
				break
			}
			c.do("analysis.Session.SendChunk", func() { err = sess.SendChunk(seq, chunk) })
		}
		if err == nil {
			c.do("analysis.Session.Finish", func() { res, err = sess.Finish() })
		}
		d := time.Since(t0)
		ok := e.verdict(p, res, err)
		c.do("analysis.Session.Delete", func() { err = sess.Delete() })
		return d, ok && err == nil
	})
}

func (w *ingestSessions) teardown() error {
	if w.svc == nil {
		return nil
	}
	return w.svc.stop()
}

// ---- ckpt-local ----

const (
	protectedVars = 8
	varCells      = 4096
	varBase       = 0x600000
	localRoundOps = 50 // checkpoints per round of ckpt-local
	restartEvery  = 10
)

// cells is the synthetic application state: the benchmark's own copy of
// what the machine holds, mutated with a Table II-like mix of hot and
// read-mostly variables.
type cells [protectedVars][]trace.Value

func newCells(rng *rand.Rand) *cells {
	var c cells
	for v := range c {
		c[v] = make([]trace.Value, varCells)
		for i := range c[v] {
			c[v][i] = trace.FloatValue(rng.Float64())
		}
	}
	return &c
}

func varAddr(v, i int) uint64 { return varBase + uint64(v*varCells+i)*8 }

// emptyMachine is a machine with no program: the checkpoint layer only
// reads and writes its memory.
func emptyMachine() *interp.Machine { return interp.New(&ir.Module{}) }

// machine returns a fresh machine holding every variable.
func (c *cells) machine() *interp.Machine {
	m := emptyMachine()
	for v := range c {
		m.WriteRange(varAddr(v, 0), c[v])
	}
	return m
}

// step is one iteration of the application: v0 fully rewritten, 1% of v1
// scattered, one contiguous 10% block of v2, v3 to v7 untouched.
func (c *cells) step(rng *rand.Rand, m *interp.Machine) {
	set := func(v, i int) {
		c[v][i] = trace.FloatValue(rng.Float64())
		m.WriteCell(varAddr(v, i), c[v][i])
	}
	for i := 0; i < varCells; i++ {
		set(0, i)
	}
	for n := 0; n < varCells/100; n++ {
		set(1, rng.Intn(varCells))
	}
	block := varCells / 10
	for i, start := 0, rng.Intn(varCells-block); i < block; i++ {
		set(2, start+i)
	}
}

// equal reports whether the machine holds exactly these cells.
func (c *cells) equal(m *interp.Machine) bool {
	for v := range c {
		for i, want := range c[v] {
			if got, ok := m.Mem[varAddr(v, i)]; !ok || !got.Equal(want) {
				return false
			}
		}
	}
	return true
}

func protect(ctx *checkpoint.Context) {
	for v := 0; v < protectedVars; v++ {
		ctx.Protect(fmt.Sprintf("v%d", v), varAddr(v, 0), varCells*8)
	}
}

type ckptLocal struct {
	ctx   *checkpoint.Context
	rng   *rand.Rand
	state *cells
	m     *interp.Machine
	iter  int64
}

// localStack is the ckpt-local storage configuration.
func localStack(dir string) store.Config {
	return store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Async: true}
}

func (w *ckptLocal) setup(e *env) error {
	dir, err := os.MkdirTemp(e.dir, "ckpt-")
	if err != nil {
		return err
	}
	if w.ctx, err = checkpoint.NewContextStore(localStack(dir), checkpoint.L1); err != nil {
		return err
	}
	w.ctx.Retain(8)
	protect(w.ctx)
	w.rng = rand.New(rand.NewSource(e.rng.Int63()))
	w.state = newCells(w.rng)
	w.m = w.state.machine()
	return nil
}

func (w *ckptLocal) round(e *env) {
	for n := 1; n <= localRoundOps; n++ {
		w.iter++
		w.state.step(w.rng, w.m)
		e.op("checkpoint", func(c call) (time.Duration, bool) {
			t0 := time.Now()
			var err error
			c.do("checkpoint.Context.Checkpoint", func() { err = w.ctx.Checkpoint(w.m, w.iter) })
			return time.Since(t0), err == nil
		})
		if n%restartEvery != 0 {
			continue
		}
		e.op("restart", func(c call) (time.Duration, bool) {
			fresh := emptyMachine()
			t0 := time.Now()
			var iter int64
			var err error
			c.do("checkpoint.Context.Flush", func() { err = w.ctx.Flush() })
			if err == nil {
				c.do("checkpoint.Context.Restart", func() { iter, err = w.ctx.Restart(fresh, nil) })
			}
			d := time.Since(t0)
			return d, err == nil && iter == w.iter && w.state.equal(fresh)
		})
	}
}

func (w *ckptLocal) teardown() error {
	if w.ctx == nil {
		return nil
	}
	return w.ctx.Close()
}

// ---- ckpt-service ----

const (
	objectSections  = 8
	sectionBytes    = 32 << 10
	serviceRoundOps = 250 // puts and gets per tenant and round of ckpt-service
)

// object is one pre-built payload and the checksum a Get of it must give.
type object struct {
	sections []store.Section
	sum      uint32
}

func newObject(rng *rand.Rand) object {
	o := object{sections: make([]store.Section, objectSections)}
	for i := range o.sections {
		data := make([]byte, sectionBytes)
		rng.Read(data)
		o.sections[i] = store.Section{Name: fmt.Sprintf("s%d", i), Data: data}
	}
	o.sum = checksum(o.sections)
	return o
}

func checksum(sections []store.Section) uint32 {
	var sum uint32
	for _, s := range sections {
		sum = crc32.Update(sum, crc32.IEEETable, []byte(s.Name))
		sum = crc32.Update(sum, crc32.IEEETable, s.Data)
	}
	return sum
}

// tenant is one caller: its own client, namespace, payloads and the
// payload each key of its ring holds now.
type tenant struct {
	be      store.Backend
	rng     *rand.Rand
	objects []object
	keys    []string
	holds   []int
}

func newTenant(be store.Backend, rng *rand.Rand, ring int) (*tenant, error) {
	t := &tenant{be: be, rng: rng, holds: make([]int, ring)}
	for k := 0; k < ring; k++ {
		t.objects = append(t.objects, newObject(rng))
		t.keys = append(t.keys, fmt.Sprintf("obj-%03d", k))
		t.holds[k] = k
		if err := be.Put(t.keys[k], t.objects[k].sections); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// round is serviceRoundOps operations, half puts and half gets on
// average, over uniformly drawn keys.
func (t *tenant) round(e *env) {
	for n := 0; n < serviceRoundOps; n++ {
		k := t.rng.Intn(len(t.keys))
		if t.rng.Intn(2) == 0 {
			j := t.rng.Intn(len(t.objects))
			e.op("put", func(c call) (time.Duration, bool) {
				t0 := time.Now()
				var err error
				c.do("store.Remote.Put", func() { err = t.be.Put(t.keys[k], t.objects[j].sections) })
				t.holds[k] = j
				return time.Since(t0), err == nil
			})
			continue
		}
		e.op("get", func(c call) (time.Duration, bool) {
			t0 := time.Now()
			var got []store.Section
			var err error
			c.do("store.Remote.Get", func() { got, err = t.be.Get(t.keys[k]) })
			d := time.Since(t0)
			return d, err == nil && checksum(got) == t.objects[t.holds[k]].sum
		})
	}
}

type ckptService struct {
	svc     *service
	tenants [callers]*tenant
}

func (w *ckptService) setup(e *env) error {
	var err error
	// The defaults of `autocheck serve` with -store memory.
	if w.svc, err = startService(server.Config{Store: store.Config{Kind: store.KindMemory}}); err != nil {
		return err
	}
	for i := range w.tenants {
		be, err := store.NewRemote(w.svc.addr, fmt.Sprintf("tenant%d", i))
		if err != nil {
			return err
		}
		if w.tenants[i], err = newTenant(be, rand.New(rand.NewSource(e.rng.Int63())), e.cfg.ring); err != nil {
			return err
		}
	}
	return nil
}

func (w *ckptService) round(e *env) { roundOf(e, w.tenants[:]) }

// roundOf has the given tenants each run a round, all at once.
func roundOf(e *env, tenants []*tenant) {
	together(len(tenants), func(i int) { tenants[i].round(e) })
}

func (w *ckptService) teardown() error {
	var errs []error
	for _, t := range w.tenants {
		if t != nil {
			errs = append(errs, t.be.Close())
		}
	}
	if w.svc != nil {
		errs = append(errs, w.svc.stop())
	}
	return errors.Join(errs...)
}
