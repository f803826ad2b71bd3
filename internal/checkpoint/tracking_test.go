package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"autocheck/internal/faultinject"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// recorder is the backend directly under a Context's reliability level: it
// keeps every buffer it is handed with the checksum it had on arrival —
// the way a retaining backend would — and passes the object on.
type recorder struct {
	store.Backend
	last []store.Section
	kept []keptBuffer
}

type keptBuffer struct {
	data []byte
	sum  uint32
}

func (r *recorder) Put(key string, sections []store.Section) error {
	r.last = sections
	for _, s := range sections {
		r.kept = append(r.kept, keptBuffer{s.Data, crc32.ChecksumIEEE(s.Data)})
	}
	return r.Backend.Put(key, sections)
}

// rewritten reports how many kept buffers no longer hold what they held
// when they were handed over.
func (r *recorder) rewritten() int {
	n := 0
	for _, k := range r.kept {
		if crc32.ChecksumIEEE(k.data) != k.sum {
			n++
		}
	}
	return n
}

// storesProgram mutates two protected globals through interpreted Store
// instructions; every run of main changes both.
const storesProgram = `
int g[24];
float h[24];
int n;
int main() {
  n = n + 1;
  for (int i = 0; i < 24; i++) {
    g[i] = g[i] + n * i + 1;
  }
  h[n % 24] = h[n % 24] + 0.5;
  return 0;
}`

// Property: whatever wrote the machine — interpreted stores, WriteCell,
// WriteRange, a Restart into the same or into another machine — and
// whatever happened to the Context in between (a variable protected again
// at another base, a failed Put, a second Context sharing the machine),
// the sections a Checkpoint hands its backend are the ones a brand-new
// Context would encode from that machine, a restart into a fresh machine
// reproduces every protected variable, and no buffer handed to a backend
// is ever written again.
func TestSectionReuseIsInvisible(t *testing.T) {
	mod, err := interp.Compile(storesProgram)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { sectionReuseRun(t, mod, seed) })
	}
}

func sectionReuseRun(t *testing.T, mod *ir.Module, seed int64) {
	const (
		raw    = 0x1000 // 16 cells; "raw" moves between here and rawAlt
		rawAlt = 0x3000
		steps  = 160
	)
	rng := rand.New(rand.NewSource(seed))
	cur := interp.New(mod)
	gAddr, _ := cur.GlobalAddr("g")
	hAddr, _ := cur.GlobalAddr("h")
	nAddr, _ := cur.GlobalAddr("n")

	type session struct {
		ctx  *Context
		rec  *recorder
		base *store.Memory
	}
	open := func() *session {
		base := store.NewMemory()
		rec := &recorder{Backend: store.NewIncremental(base, 3, 64)}
		ctx, err := NewContextBackend(rec, L1)
		if err != nil {
			t.Fatal(err)
		}
		return &session{ctx, rec, base}
	}
	a, b := open(), open()
	a.ctx.Protect("g", gAddr, 24*8)
	a.ctx.Protect("h", hAddr, 24*8)
	a.ctx.Protect("n", nAddr, 8)
	a.ctx.Protect("raw", raw, 16*8)
	b.ctx.Protect("g", gAddr, 24*8)    // the same range as a's: one shared watch
	b.ctx.Protect("tail", raw+64, 8*8) // overlaps the upper half of a's raw
	rawBase := uint64(raw)

	value := func() trace.Value {
		switch rng.Intn(3) {
		case 0:
			return trace.IntValue(rng.Int63n(1000) - 500)
		case 1:
			return trace.FloatValue(rng.Float64())
		}
		return trace.PtrValue(rng.Uint64())
	}
	// address picks a cell in or next to a protected range.
	address := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return gAddr + uint64(rng.Intn(26))*8 // spills into h
		case 1:
			return hAddr + uint64(rng.Intn(26))*8 // spills into n and past it
		case 2:
			return raw - 16 + uint64(rng.Intn(22))*8
		case 3:
			return rawAlt - 16 + uint64(rng.Intn(22))*8
		case 4:
			return nAddr
		}
		return 0x9000 + uint64(rng.Intn(4))*8 // protected by nobody
	}
	iter := int64(0)
	checkpoint := func(s *session, fail string) {
		iter++
		var reg *faultinject.Registry
		switch fail {
		case SiteCheckpointPut:
			reg = faultinject.NewRegistry(seed)
			reg.Arm(faultinject.Failpoint{Site: fail, Action: faultinject.ActionError, Nth: 1})
			s.ctx.SetFaults(reg)
			defer s.ctx.SetFaults(nil)
		case store.SitePut: // below the incremental decorator: its basis must not advance
			reg = faultinject.NewRegistry(seed)
			reg.Arm(faultinject.Failpoint{Site: fail, Action: faultinject.ActionError, Nth: 1})
			s.base.SetFaults(reg)
			defer s.base.SetFaults(nil)
		}
		err := s.ctx.Checkpoint(cur, iter)
		if fail != "" {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("iter %d: Checkpoint with %s armed = %v", iter, fail, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		vars := s.ctx.ProtectedVars()
		brandNew := make([]variable, len(vars))
		for i, p := range vars {
			brandNew[i].Protected = p
		}
		want := encodeCheckpoint(cur, brandNew, iter)
		if len(s.rec.last) != len(want) {
			t.Fatalf("iter %d: %d sections handed on, want %d", iter, len(s.rec.last), len(want))
		}
		for i, sec := range s.rec.last {
			if sec.Name != want[i].Name || !bytes.Equal(sec.Data, want[i].Data) {
				t.Fatalf("iter %d: section %q handed to the backend is not what the machine holds", iter, sec.Name)
			}
		}
		fresh := interp.New(mod)
		if got, err := s.ctx.Restart(fresh, nil); err != nil || got != iter {
			t.Fatalf("iter %d: Restart = %d, %v", iter, got, err)
		}
		for _, p := range vars {
			if !reflect.DeepEqual(fresh.ReadRange(p.Base, p.Cells), cur.ReadRange(p.Base, p.Cells)) {
				t.Fatalf("iter %d: restarted %q differs from the machine", iter, p.Name)
			}
		}
	}

	checkpoint(a, "")
	checkpoint(b, "")
	for step := 0; step < steps; step++ {
		s := a
		if rng.Intn(3) == 0 {
			s = b
		}
		switch op := rng.Intn(16); {
		case op < 4:
			checkpoint(s, "")
		case op == 4:
			checkpoint(s, SiteCheckpointPut)
		case op == 5:
			checkpoint(s, store.SitePut)
		case op == 6:
			if _, err := cur.Run(); err != nil {
				t.Fatal(err)
			}
		case op < 10:
			cur.WriteCell(address(), value())
		case op < 13:
			vals := make([]trace.Value, rng.Intn(12))
			for i := range vals {
				vals[i] = value()
			}
			cur.WriteRange(address(), vals)
		case op == 13:
			if _, err := s.ctx.Restart(cur, nil); err != nil {
				t.Fatal(err)
			}
		case op == 14:
			// The application dies and resumes on another machine; both
			// contexts go on checkpointing that one.
			next := interp.New(mod)
			if _, err := s.ctx.Restart(next, nil); err != nil {
				t.Fatal(err)
			}
			cur = next
		default:
			rawBase ^= raw ^ rawAlt
			if !a.ctx.Unprotect("raw") {
				t.Fatal("raw was not protected")
			}
			a.ctx.Protect("raw", rawBase, 16*8)
		}
	}
	checkpoint(a, "")
	checkpoint(b, "")
	if n := a.rec.rewritten() + b.rec.rewritten(); n != 0 {
		t.Errorf("%d buffers were written after a backend had been handed them", n)
	}
}

// allocatedPerRun is the heap bytes one call of f allocates.
func allocatedPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// discard is a backend that stores nothing.
type discard struct{ store.Backend }

func (discard) Put(string, []store.Section) error { return nil }
func (discard) List() ([]string, error)           { return nil, nil }

// A checkpoint of a machine nobody wrote to costs the section list, not
// the cells; after one cell of one variable is written it costs that
// variable's section and no other.
func TestCheckpointOfUnwrittenMachineAllocatesNoSections(t *testing.T) {
	const (
		vars    = 4
		cells   = 4096
		section = 16 + cellBytes*cells
	)
	ctx, err := NewContextBackend(discard{}, L1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t)
	for v := 0; v < vars; v++ {
		base := uint64(0x10000 + v*cells*8)
		ctx.Protect(fmt.Sprint("v", v), base, cells*8)
		m.WriteRange(base, make([]trace.Value, cells))
	}
	iter := int64(0)
	checkpoint := func() {
		iter++
		if err := ctx.Checkpoint(m, iter); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocatedPerRun(50, checkpoint); got > section/8 {
		t.Errorf("a checkpoint of an unwritten machine allocated %d bytes; one section is %d", got, section)
	}
	got := allocatedPerRun(50, func() {
		m.WriteCell(0x10000+8*17, trace.IntValue(iter))
		checkpoint()
	})
	if got < section || got > section+section/8 {
		t.Errorf("a checkpoint after one written cell allocated %d bytes, want one section (%d) and little else", got, section)
	}
}

// counting counts the reads that reach the base store.
type counting struct {
	store.Backend
	lists, gets int
}

func (c *counting) List() ([]string, error) { c.lists++; return c.Backend.List() }
func (c *counting) Get(key string) ([]store.Section, error) {
	c.gets++
	return c.Backend.Get(key)
}

// In steady state the retention prune after a checkpoint lists the store
// once and reads nothing: the retained keys are this session's, and the
// incremental decorator knows their chains without asking the store.
func TestSteadyStatePruneListsOnceAndReadsNothing(t *testing.T) {
	base := &counting{Backend: store.NewMemory()}
	// The chain NewContextStore builds for Incremental+Async, over a base
	// that counts.
	backend := store.NewAsync(store.NewIncremental(newLevelBackend(base, L1), 0, 0))
	ctx := &Context{backend: backend, level: L1}
	defer ctx.Close()
	ctx.Retain(8)
	ctx.Protect("x", 0x1000, 64)
	m := machine(t)
	writeN(t, ctx, m, 3*store.DefaultKeyframe) // the retained window now spans two chains
	for i := 0; i < 2*store.DefaultKeyframe; i++ {
		base.lists, base.gets = 0, 0
		writeN(t, ctx, m, 1)
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
		if base.lists != 1 || base.gets != 0 {
			t.Fatalf("checkpoint %d: %d Lists and %d Gets reached the store, want 1 and 0", ctx.Count(), base.lists, base.gets)
		}
	}
	if keys, _ := base.List(); len(keys) < 8 || len(keys) > 8+store.DefaultKeyframe {
		t.Errorf("%d objects retained, want the newest 8 plus at most one chain's head", len(keys))
	}
	fresh := machine(t)
	if iter, err := ctx.Restart(fresh, nil); err != nil || iter != 1 {
		t.Errorf("Restart = %d, %v", iter, err)
	}
}
