package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// contexts returns a fresh Context over every backend/decorator
// combination, for tests that must hold across the whole engine.
func contexts(t *testing.T, level Level) map[string]*Context {
	t.Helper()
	out := make(map[string]*Context)
	for name, cfg := range map[string]store.Config{
		"file":             {Kind: store.KindFile},
		"memory":           {Kind: store.KindMemory},
		"file-async":       {Kind: store.KindFile, Async: true},
		"file-incremental": {Kind: store.KindFile, Incremental: true, Keyframe: 3},
		"file-async-incremental": {
			Kind: store.KindFile, Async: true, Incremental: true, Keyframe: 3,
		},
	} {
		if cfg.Kind != store.KindMemory {
			cfg.Dir = t.TempDir()
		}
		ctx, err := NewContextStore(cfg, level)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = ctx
	}
	return out
}

func TestRoundtripAllStoreBackends(t *testing.T) {
	for name, ctx := range contexts(t, L1) {
		t.Run(name, func(t *testing.T) {
			defer ctx.Close()
			m := machine(t)
			ctx.Protect("arr", 0x1000, 24)
			ctx.Protect("x", 0x2000, 8)
			for i := int64(1); i <= 7; i++ {
				m.WriteRange(0x1000, []trace.Value{trace.IntValue(i), trace.IntValue(2 * i), trace.IntValue(3 * i)})
				m.WriteRange(0x2000, []trace.Value{trace.FloatValue(float64(i) / 2)})
				if err := ctx.Checkpoint(m, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctx.Flush(); err != nil {
				t.Fatal(err)
			}
			m2 := machine(t)
			iter, err := ctx.Restart(m2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if iter != 7 {
				t.Errorf("iter = %d, want 7", iter)
			}
			if got := m2.ReadRange(0x1000, 3); got[0].Int() != 7 || got[1].Int() != 14 || got[2].Int() != 21 {
				t.Errorf("arr = %v", got)
			}
			if v := m2.ReadRange(0x2000, 1)[0]; v.Float() != 3.5 {
				t.Errorf("x = %v", v)
			}
			if ctx.Count() != 7 || ctx.LastBytes() <= 0 || ctx.TotalBytes() < 7*ctx.LastBytes() {
				t.Errorf("accounting: count=%d last=%d total=%d", ctx.Count(), ctx.LastBytes(), ctx.TotalBytes())
			}
			if st := ctx.StoreStats(); st.BytesWritten <= 0 {
				t.Errorf("StoreStats = %+v", st)
			}
		})
	}
}

// A flipped bit in the newest checkpoint must make Restart fall back to
// the previous valid one, on every file-backed backend.
func TestFlippedBitFallsBackToPreviousCheckpoint(t *testing.T) {
	corrupt := func(t *testing.T, dir string) {
		// Flip one byte in every file of the newest checkpoint's objects.
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !matchesSeq(path, "000002") {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil || len(data) == 0 {
				return err
			}
			data[len(data)/2] ^= 0x10
			return os.WriteFile(path, data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, cfg := range map[string]store.Config{
		"file": {Kind: store.KindFile},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := cfg
			cfg.Dir = dir
			ctx, err := NewContextStore(cfg, L1)
			if err != nil {
				t.Fatal(err)
			}
			m := machine(t)
			ctx.Protect("x", 0x1000, 8)
			for i := int64(1); i <= 2; i++ {
				m.WriteRange(0x1000, []trace.Value{trace.IntValue(100 * i)})
				if err := ctx.Checkpoint(m, i); err != nil {
					t.Fatal(err)
				}
			}
			corrupt(t, dir)
			m2 := machine(t)
			iter, err := ctx.Restart(m2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if iter != 1 || m2.ReadRange(0x1000, 1)[0].Int() != 100 {
				t.Errorf("fallback failed: iter=%d x=%v", iter, m2.ReadRange(0x1000, 1)[0])
			}
		})
	}
}

func matchesSeq(path, seq string) bool {
	base := filepath.Base(path)
	dir := filepath.Base(filepath.Dir(path))
	return containsSeq(base, seq) || containsSeq(dir, seq)
}

func containsSeq(name, seq string) bool {
	for i := 0; i+len(seq) <= len(name); i++ {
		if name[i:i+len(seq)] == seq {
			return true
		}
	}
	return false
}

// A truncated (torn) newest checkpoint must also fall back.
func TestTornWriteFallsBackToPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, err := newFileContext(dir, L1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t)
	ctx.Protect("x", 0x1000, 8)
	for i := int64(1); i <= 2; i++ {
		m.WriteRange(0x1000, []trace.Value{trace.IntValue(i)})
		if err := ctx.Checkpoint(m, i); err != nil {
			t.Fatal(err)
		}
	}
	newest := filepath.Join(dir, "ckpt-000002.l1")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 1 {
		t.Errorf("torn-write fallback: iter = %d, want 1", iter)
	}
}

// With the incremental decorator, corrupting the newest delta must fall
// back to the previous reconstructable checkpoint, and corrupting a
// keyframe must fall back past its whole delta chain.
func TestIncrementalCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Keyframe: 3}
	ctx, err := NewContextStore(cfg, L1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t)
	ctx.Protect("x", 0x1000, 8)
	// Keyframes at seq 1 and 4; deltas at 2, 3, 5.
	for i := int64(1); i <= 5; i++ {
		m.WriteRange(0x1000, []trace.Value{trace.IntValue(i)})
		if err := ctx.Checkpoint(m, i); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(seq string) {
		path := filepath.Join(dir, "ckpt-"+seq+".l1")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip("000005") // newest delta
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil || iter != 4 {
		t.Fatalf("after delta corruption: iter=%d err=%v, want 4", iter, err)
	}
	flip("000004") // keyframe of the second chain
	m3 := machine(t)
	iter, err = ctx.Restart(m3, nil)
	if err != nil || iter != 3 {
		t.Fatalf("after keyframe corruption: iter=%d err=%v, want 3", iter, err)
	}
	if m3.ReadRange(0x1000, 1)[0].Int() != 3 {
		t.Errorf("x = %v, want 3", m3.ReadRange(0x1000, 1)[0])
	}
}

// A Context reopened over an existing store (the cross-process restart
// flow) must resume the sequence past the previous session's checkpoints
// instead of restarting at 1: overwriting early keys while stale
// higher-numbered objects survive would let the old session's state
// shadow the new one on the next Restart — and, with the incremental
// decorator, leave deltas referencing a keyframe that no longer exists.
func TestReopenedContextAppendsAfterPreviousSession(t *testing.T) {
	for name, cfg := range map[string]store.Config{
		"file":             {Kind: store.KindFile},
		"file-incremental": {Kind: store.KindFile, Incremental: true, Keyframe: 3},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Dir = t.TempDir()
			ctx, err := NewContextStore(cfg, L1)
			if err != nil {
				t.Fatal(err)
			}
			m := machine(t)
			ctx.Protect("x", 0x1000, 8)
			for i := int64(1); i <= 4; i++ {
				m.WriteRange(0x1000, []trace.Value{trace.IntValue(10 * i)})
				if err := ctx.Checkpoint(m, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctx.Close(); err != nil {
				t.Fatal(err)
			}

			// "Process restart": a fresh Context over the same directory.
			ctx2, err := NewContextStore(cfg, L1)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx2.Close()
			ctx2.Protect("x", 0x1000, 8)
			m2 := machine(t)
			iter, err := ctx2.Restart(m2, nil)
			if err != nil || iter != 4 || m2.ReadRange(0x1000, 1)[0].Int() != 40 {
				t.Fatalf("restart into new session: iter=%d err=%v", iter, err)
			}
			m2.WriteRange(0x1000, []trace.Value{trace.IntValue(999)})
			if err := ctx2.Checkpoint(m2, 5); err != nil {
				t.Fatal(err)
			}
			if err := ctx2.Flush(); err != nil {
				t.Fatal(err)
			}
			// The new checkpoint appends at seq 5 (no session-1 object was
			// overwritten), and a subsequent restart sees the new state.
			m3 := machine(t)
			iter, err = ctx2.Restart(m3, nil)
			if err != nil || iter != 5 || m3.ReadRange(0x1000, 1)[0].Int() != 999 {
				t.Errorf("restart after appended checkpoint: iter=%d err=%v x=%v",
					iter, err, m3.ReadRange(0x1000, 1)[0])
			}
			if ctx2.Count() != 1 {
				t.Errorf("Count = %d, want 1 (this session's checkpoints only)", ctx2.Count())
			}
		})
	}
}

func TestAsyncCheckpointErrorSurfacesOnFlush(t *testing.T) {
	dir := t.TempDir()
	ctx, err := NewContextStore(store.Config{Kind: store.KindFile, Dir: dir, Async: true}, L1)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t)
	ctx.Protect("x", 0x1000, 8)
	// Make the directory unwritable so the background write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte{}, 0o644); err != nil { // dir is now a file
		t.Fatal(err)
	}
	_ = ctx.Checkpoint(m, 1) // may or may not report synchronously
	if err := ctx.Flush(); err == nil {
		t.Error("Flush swallowed the background write error")
	}
}

func TestContextBackendAndLevels(t *testing.T) {
	mem := store.NewMemory()
	ctx, err := NewContextBackend(mem, L3)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(t)
	m.WriteRange(0x1000, []trace.Value{trace.IntValue(5)})
	ctx.Protect("x", 0x1000, 8)
	if err := ctx.Checkpoint(m, 1); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 { // primary + partner + parity
		t.Errorf("L3 wrote %v, want 3 objects", keys)
	}
	// Corrupt the primary in memory; the partner must carry the restart.
	if !mem.Corrupt("ckpt-000001.l1", 20) {
		t.Fatal("no primary object")
	}
	m2 := machine(t)
	if iter, err := ctx.Restart(m2, nil); err != nil || iter != 1 {
		t.Fatalf("restart via partner: iter=%d err=%v", iter, err)
	}
	if _, err := NewContextBackend(mem, Level(0)); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestRestartEmptyStore(t *testing.T) {
	ctx, err := NewContextStore(store.Config{Kind: store.KindMemory}, L1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Restart(machine(t), nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"1": L1, "L2": L2, "l3": L3, "4": L4} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "0", "5", "Lx"} {
		if _, err := ParseLevel(s); err == nil {
			t.Errorf("ParseLevel(%q) succeeded", s)
		}
	}
}
