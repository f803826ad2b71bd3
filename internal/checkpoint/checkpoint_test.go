package checkpoint

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/quick"

	"autocheck/internal/interp"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// newFileContext opens a Context over the plain file backend in dir.
func newFileContext(dir string, level Level) (*Context, error) {
	return NewContextStore(store.Config{Kind: store.KindFile, Dir: dir}, level)
}

func machine(t *testing.T) *interp.Machine {
	t.Helper()
	mod, err := interp.Compile(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	return interp.New(mod)
}

func TestCheckpointRestartRoundtrip(t *testing.T) {
	m := machine(t)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(1), trace.IntValue(2), trace.IntValue(3)})
	m.WriteRange(0x2000, []trace.Value{trace.FloatValue(2.5)})
	ctx, err := newFileContext(t.TempDir(), L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("arr", 0x1000, 24)
	ctx.Protect("x", 0x2000, 8)
	if err := ctx.Checkpoint(m, 7); err != nil {
		t.Fatal(err)
	}
	// Clobber and restore.
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 7 {
		t.Errorf("restored iter = %d, want 7", iter)
	}
	got := m2.ReadRange(0x1000, 3)
	if got[0].Int() != 1 || got[1].Int() != 2 || got[2].Int() != 3 {
		t.Errorf("arr = %v", got)
	}
	if v := m2.ReadRange(0x2000, 1)[0]; v.Float() != 2.5 {
		t.Errorf("x = %v", v)
	}
}

func TestRestartSkipsDroppedVars(t *testing.T) {
	m := machine(t)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(42)})
	m.WriteRange(0x2000, []trace.Value{trace.IntValue(99)})
	ctx, err := newFileContext(t.TempDir(), L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("a", 0x1000, 8)
	ctx.Protect("b", 0x2000, 8)
	if err := ctx.Checkpoint(m, 1); err != nil {
		t.Fatal(err)
	}
	m2 := machine(t)
	if _, err := ctx.Restart(m2, map[string]bool{"b": true}); err != nil {
		t.Fatal(err)
	}
	if m2.ReadRange(0x1000, 1)[0].Int() != 42 {
		t.Error("a not restored")
	}
	if m2.ReadRange(0x2000, 1)[0].Int() != 0 {
		t.Error("b restored despite skip")
	}
}

func TestLatestCheckpointWins(t *testing.T) {
	m := machine(t)
	ctx, err := newFileContext(t.TempDir(), L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("x", 0x1000, 8)
	for i := int64(1); i <= 5; i++ {
		m.WriteRange(0x1000, []trace.Value{trace.IntValue(i * 10)})
		if err := ctx.Checkpoint(m, i); err != nil {
			t.Fatal(err)
		}
	}
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 5 || m2.ReadRange(0x1000, 1)[0].Int() != 50 {
		t.Errorf("iter=%d x=%v, want 5/50", iter, m2.ReadRange(0x1000, 1)[0])
	}
	if ctx.Count() != 5 {
		t.Errorf("Count = %d", ctx.Count())
	}
	if ctx.TotalBytes() <= ctx.LastBytes() {
		t.Error("TotalBytes should accumulate")
	}
}

func TestCorruptedPrimaryFallsBackToPartner(t *testing.T) {
	dir := t.TempDir()
	m := machine(t)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(123)})
	ctx, err := newFileContext(dir, L2)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("x", 0x1000, 8)
	if err := ctx.Checkpoint(m, 3); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary.
	primary := filepath.Join(dir, "ckpt-000001.l1")
	data, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(primary, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil {
		t.Fatalf("Restart with partner copy: %v", err)
	}
	if iter != 3 || m2.ReadRange(0x1000, 1)[0].Int() != 123 {
		t.Errorf("partner recovery failed: iter=%d", iter)
	}
}

func TestCorruptedL1WithoutPartnerSkipsToOlder(t *testing.T) {
	dir := t.TempDir()
	m := machine(t)
	ctx, err := newFileContext(dir, L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("x", 0x1000, 8)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(1)})
	if err := ctx.Checkpoint(m, 1); err != nil {
		t.Fatal(err)
	}
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(2)})
	if err := ctx.Checkpoint(m, 2); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest.
	newest := filepath.Join(dir, "ckpt-000002.l1")
	if err := os.WriteFile(newest, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 1 || m2.ReadRange(0x1000, 1)[0].Int() != 1 {
		t.Errorf("fallback to older checkpoint failed: iter=%d", iter)
	}
}

func TestNoCheckpoint(t *testing.T) {
	ctx, err := newFileContext(t.TempDir(), L1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t)
	if _, err := ctx.Restart(m, nil); err != ErrNoCheckpoint {
		t.Errorf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestLevels(t *testing.T) {
	for _, lvl := range []Level{L1, L2, L3, L4} {
		dir := t.TempDir()
		m := machine(t)
		m.WriteRange(0x1000, []trace.Value{trace.IntValue(5)})
		ctx, err := newFileContext(dir, lvl)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Protect("x", 0x1000, 8)
		if err := ctx.Checkpoint(m, 1); err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		entries, _ := os.ReadDir(dir)
		wantFiles := map[Level]int{L1: 1, L2: 2, L3: 3, L4: 3}[lvl]
		if len(entries) != wantFiles {
			t.Errorf("%v wrote %d files, want %d", lvl, len(entries), wantFiles)
		}
		m2 := machine(t)
		if _, err := ctx.Restart(m2, nil); err != nil {
			t.Errorf("%v restart: %v", lvl, err)
		}
	}
	if _, err := newFileContext(t.TempDir(), Level(9)); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestUnprotect(t *testing.T) {
	ctx, err := newFileContext(t.TempDir(), L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("a", 0x1000, 8)
	ctx.Protect("b", 0x2000, 8)
	if !ctx.Unprotect("a") {
		t.Error("Unprotect(a) = false")
	}
	if ctx.Unprotect("zzz") {
		t.Error("Unprotect(zzz) = true")
	}
	if vars := ctx.ProtectedVars(); len(vars) != 1 || vars[0].Name != "b" {
		t.Errorf("ProtectedVars = %v", vars)
	}
}

func TestFullSnapshotRoundtrip(t *testing.T) {
	m := machine(t)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(1), trace.FloatValue(2.5), trace.PtrValue(0xdead)})
	snap := FullSnapshot(m, 9)
	m2 := machine(t)
	iter, err := FullRestore(m2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 9 {
		t.Errorf("iter = %d", iter)
	}
	got := m2.ReadRange(0x1000, 3)
	if got[0].Int() != 1 || got[1].Float() != 2.5 || got[2].Addr() != 0xdead {
		t.Errorf("restored = %v", got)
	}
}

func TestFullRestoreRejectsCorruption(t *testing.T) {
	m := machine(t)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(1)})
	snap := FullSnapshot(m, 1)
	snap[10] ^= 0xFF
	if _, err := FullRestore(machine(t), snap); err == nil {
		t.Error("corrupted snapshot accepted")
	}
	if _, err := FullRestore(machine(t), []byte("xx")); err == nil {
		t.Error("short snapshot accepted")
	}
}

// Property: checkpoint/restore is the identity on arbitrary cell contents.
func TestQuickRoundtrip(t *testing.T) {
	dir := t.TempDir()
	seq := 0
	f := func(ints []int64, floats []float64) bool {
		seq++
		m := machine(t)
		var vals []trace.Value
		for _, v := range ints {
			vals = append(vals, trace.IntValue(v))
		}
		for _, v := range floats {
			if v != v { // skip NaN: Equal uses ==
				continue
			}
			vals = append(vals, trace.FloatValue(v))
		}
		if len(vals) == 0 {
			vals = []trace.Value{trace.IntValue(0)}
		}
		m.WriteRange(0x4000, vals)
		ctx, err := newFileContext(filepath.Join(dir, "q", strconv.Itoa(seq)), L1)
		if err != nil {
			return false
		}
		ctx.Protect("v", 0x4000, int64(len(vals)*8))
		if err := ctx.Checkpoint(m, 1); err != nil {
			return false
		}
		m2 := machine(t)
		if _, err := ctx.Restart(m2, nil); err != nil {
			return false
		}
		got := m2.ReadRange(0x4000, int64(len(vals)))
		for i := range vals {
			if !got[i].Equal(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
