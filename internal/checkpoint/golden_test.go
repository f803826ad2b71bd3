package checkpoint

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// goldenAccounting was recorded at commit cbe2d9f, before the write path
// stopped re-reading unwritten variables: the test was copied into a clone
// of that commit and run three times. goldenStoreHash was recorded, in
// three runs, by the child of commit b74851c, which made every delta kind 3
// (a CRC predecessor digest in place of FNV): the same objects as before
// but for each delta's kind byte and digest, so no length and no byte
// count moved. A change that keeps both writes the same objects, byte for
// byte, and Table IV's volumes have not moved. Kind-2 deltas keep their
// own golden: internal/store/testdata/kind2, pinned by kind2Golden and
// read back by TestIncrementalReadsKind2Chain.
const (
	goldenStoreHash  = "619070935efd8a348e5def7cd690254038aae5299a2ad84f61b834ed1c1c2a66"
	goldenAccounting = "files=15 last=16445 total=641355 written=239672 skipped=100 keyframes=5 deltas=34 pruned=24"
)

// goldenRun drives a seeded application through file+incremental+async
// with Retain(8) and returns the directory it wrote and its accounting.
// Six variables: hot is rewritten every iteration with WriteRange; sparse
// gets a few WriteCells; block one contiguous WriteRange; mixed holds
// int, float and pointer cells and changes every third iteration; cold is
// written once before the first checkpoint; never is not written at all
// (its cells are absent from the machine). After iterations 13 and 29 the
// newest checkpoint is restarted into the same machine, so the following
// checkpoint finds every variable written and none changed.
func goldenRun(t *testing.T) (dir, accounting string) {
	t.Helper()
	const (
		cells      = 300
		iterations = 37 // keyframes at 1, 9, 17, 25, 33
		hot        = 0x10000
		sparse     = 0x20000
		block      = 0x30000
		mixed      = 0x40000
		cold       = 0x50000
		never      = 0x60000
	)
	dir = t.TempDir()
	ctx, err := NewContextStore(store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Async: true}, L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Retain(8)
	for _, v := range []struct {
		name string
		base uint64
	}{{"hot", hot}, {"sparse", sparse}, {"block", block}, {"mixed", mixed}, {"cold", cold}, {"never", never}} {
		ctx.Protect(v.name, v.base, cells*8)
	}
	rng := rand.New(rand.NewSource(20))
	floats := func(n int) []trace.Value {
		vals := make([]trace.Value, n)
		for i := range vals {
			vals[i] = trace.FloatValue(rng.Float64())
		}
		return vals
	}
	m := machine(t)
	for _, base := range []uint64{hot, sparse, block, cold} {
		m.WriteRange(base, floats(cells))
	}
	for iter := int64(1); iter <= iterations; iter++ {
		m.WriteRange(hot, floats(cells))
		for n := 0; n < 3; n++ {
			m.WriteCell(sparse+uint64(rng.Intn(cells))*8, trace.FloatValue(rng.Float64()))
		}
		m.WriteRange(block+uint64(rng.Intn(cells-30))*8, floats(30))
		if iter%3 == 0 {
			for i := 0; i < cells; i += 3 {
				m.WriteCell(mixed+uint64(i)*8, trace.IntValue(rng.Int63()-1<<62))
				m.WriteCell(mixed+uint64(i+1)*8, trace.FloatValue(rng.NormFloat64()))
				m.WriteCell(mixed+uint64(i+2)*8, trace.PtrValue(rng.Uint64()))
			}
		}
		if err := ctx.Checkpoint(m, iter); err != nil {
			t.Fatalf("checkpoint %d: %v", iter, err)
		}
		if iter == 13 || iter == 29 {
			if got, err := ctx.Restart(m, nil); err != nil || got != iter {
				t.Fatalf("restart at %d: iter=%d err=%v", iter, got, err)
			}
			if err := ctx.Checkpoint(m, iter); err != nil {
				t.Fatalf("checkpoint after restart at %d: %v", iter, err)
			}
		}
	}
	if err := ctx.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ctx.StoreStats()
	accounting = fmt.Sprintf("last=%d total=%d written=%d skipped=%d keyframes=%d deltas=%d pruned=%d",
		ctx.LastBytes(), ctx.TotalBytes(), st.BytesWritten, st.SectionsSkipped, st.Keyframes, st.Deltas, ctx.Pruned())
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, accounting
}

// TestGoldenStoreBytes pins the stored bytes of a seeded run: every file's
// name, length and content, and the byte accounting the tables report.
func TestGoldenStoreBytes(t *testing.T) {
	dir, accounting := goldenRun(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	accounting = fmt.Sprintf("files=%d %s", len(entries), accounting)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenStoreHash {
		t.Errorf("stored bytes hash = %s, want %s", got, goldenStoreHash)
	}
	if accounting != goldenAccounting {
		t.Errorf("accounting = %q, want %q", accounting, goldenAccounting)
	}
}
