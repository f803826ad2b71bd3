package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"autocheck/internal/interp"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// ckptFiles lists the primary checkpoint objects (logical keys) in a
// file-backed store directory.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".l1") {
			keys = append(keys, strings.TrimSuffix(e.Name(), ".l1"))
		}
	}
	sort.Strings(keys)
	return keys
}

func writeN(t *testing.T, ctx *Context, m *interp.Machine, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		m.WriteRange(0x1000, []trace.Value{trace.IntValue(int64(i))})
		if err := ctx.Checkpoint(m, int64(i)); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
}

func TestRetainPrunesToNewestN(t *testing.T) {
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
			defer ctx.Close()
			ctx.Retain(3)
			ctx.Protect("x", 0x1000, 8)
			m := machine(t)
			writeN(t, ctx, m, 10)
			var keys []string
			if name == "file" {
				keys = ckptFiles(t, dir)
			} else {
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if e.IsDir() && strings.HasSuffix(e.Name(), ".l1") {
						keys = append(keys, strings.TrimSuffix(e.Name(), ".l1"))
					}
				}
				sort.Strings(keys)
			}
			want := []string{"ckpt-000008", "ckpt-000009", "ckpt-000010"}
			if fmt.Sprint(keys) != fmt.Sprint(want) {
				t.Errorf("retained keys = %v, want %v", keys, want)
			}
			if ctx.Pruned() != 7 {
				t.Errorf("Pruned = %d, want 7", ctx.Pruned())
			}
			m2 := machine(t)
			iter, err := ctx.Restart(m2, nil)
			if err != nil || iter != 10 || m2.ReadRange(0x1000, 1)[0].Int() != 10 {
				t.Errorf("restart after prune: iter=%d err=%v", iter, err)
			}
		})
	}
}

// The retention floor: a retained delta keeps its keyframe and every
// intermediate delta alive even when they fall outside the retention
// window, so a pruned store is always restartable.
func TestRetainKeepsChainOfRetainedDeltas(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Keyframe: 4}
	ctx, err := NewContextStore(cfg, L1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ctx.Retain(2)
	ctx.Protect("x", 0x1000, 8)
	m := machine(t)
	// Keyframes at 1 and 5; deltas at 2-4 and 6-7.
	writeN(t, ctx, m, 7)
	// Retained window is {6, 7}: both deltas of the second chain, whose
	// reconstruction needs keyframe 5 and delta 6. Chain one (1-4) is
	// unreferenced and fully pruned.
	want := []string{"ckpt-000005", "ckpt-000006", "ckpt-000007"}
	if got := ckptFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("surviving keys = %v, want %v (keyframe kept beyond the window)", got, want)
	}
	m2 := machine(t)
	iter, err := ctx.Restart(m2, nil)
	if err != nil || iter != 7 || m2.ReadRange(0x1000, 1)[0].Int() != 7 {
		t.Fatalf("restart from retained chain: iter=%d err=%v", iter, err)
	}

	// One more checkpoint starts nothing new (8 is a delta on 7): the
	// window slides to {7, 8}, still pinning keyframe 5 and deltas 6-7.
	writeN(t, ctx, m, 1) // writes seq 8 with value 1
	want = []string{"ckpt-000005", "ckpt-000006", "ckpt-000007", "ckpt-000008"}
	if got := ckptFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after slide: %v, want %v", got, want)
	}
	// Crossing the next keyframe (seq 9) frees the old chain entirely.
	writeN(t, ctx, m, 2) // seq 9 (keyframe), seq 10 (delta)
	want = []string{"ckpt-000009", "ckpt-000010"}
	if got := ckptFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after next keyframe: %v, want %v", got, want)
	}
	m3 := machine(t)
	if iter, err := ctx.Restart(m3, nil); err != nil || iter != 2 {
		t.Fatalf("restart after chain turnover: iter=%d err=%v", iter, err)
	}
}

// The same floor when the incremental decorator sits under the levels
// (NewContextBackend) rather than over them: the chain runs through the
// physical copies, and the levels must answer for them in logical keys.
// At L1 and L2, with the default keyframe interval of 8 puts, the retained
// {11, 12} descend from the keyframe that starts checkpoint 9, so 1-8 go
// and 9-12 stay. At L3 every parity copy and the primary after it are
// keyframes (their sections differ), so 11 and 12 stand alone.
//
// Mutation-checked: without levelBackend.Dependencies the L1 and L2 rows
// prune 1-10 and Restart finds no valid checkpoint; with a delta allowed
// over a keyframe of other sections the L3 row restarts from 11.
func TestRetainIncrementalUnderLevels(t *testing.T) {
	for _, tc := range []struct {
		level  Level
		pruned int
	}{{L1, 8}, {L2, 8}, {L3, 10}} {
		t.Run(fmt.Sprint(tc.level), func(t *testing.T) {
			ctx, err := NewContextBackend(store.Decorate(store.NewMemory(), store.Config{Incremental: true}), tc.level)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			ctx.Retain(2)
			ctx.Protect("x", 0x1000, 8)
			writeN(t, ctx, machine(t), 12)
			if ctx.Pruned() != tc.pruned {
				t.Errorf("Pruned = %d, want %d", ctx.Pruned(), tc.pruned)
			}
			m := machine(t)
			iter, err := ctx.Restart(m, nil)
			if err != nil || iter != 12 || m.ReadRange(0x1000, 1)[0].Int() != 12 {
				t.Fatalf("restart after prune: iter=%d err=%v", iter, err)
			}
		})
	}
}

func TestRetainWithAsyncBackend(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Kind: store.KindFile, Dir: dir, Async: true}
	ctx, err := NewContextStore(cfg, L1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ctx.Retain(2)
	ctx.Protect("x", 0x1000, 8)
	m := machine(t)
	writeN(t, ctx, m, 6)
	if err := ctx.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ckpt-000005", "ckpt-000006"}
	if got := ckptFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("retained keys = %v, want %v", got, want)
	}
	m2 := machine(t)
	if iter, err := ctx.Restart(m2, nil); err != nil || iter != 6 {
		t.Fatalf("restart: iter=%d err=%v", iter, err)
	}
}

// Retention must prune replicas too: at L2 the partner copies of pruned
// checkpoints disappear with their primaries.
func TestRetainPrunesReplicas(t *testing.T) {
	dir := t.TempDir()
	ctx, err := NewContextStore(store.Config{Kind: store.KindFile, Dir: dir}, L2)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ctx.Retain(1)
	ctx.Protect("x", 0x1000, 8)
	m := machine(t)
	writeN(t, ctx, m, 4)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{"ckpt-000004.l1", "ckpt-000004.l2"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("surviving files = %v, want %v", names, want)
	}
}

func TestRetainDisabledKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	ctx, err := NewContextStore(store.Config{Kind: store.KindFile, Dir: dir}, L1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ctx.Retain(0) // explicit no-op
	ctx.Retain(-5)
	ctx.Protect("x", 0x1000, 8)
	m := machine(t)
	writeN(t, ctx, m, 5)
	if got := ckptFiles(t, dir); len(got) != 5 {
		t.Errorf("retention disabled but only %v survive", got)
	}
	if ctx.Pruned() != 0 {
		t.Errorf("Pruned = %d, want 0", ctx.Pruned())
	}
}

// A reopened session (cross-process restart) prunes the previous
// session's surplus checkpoints on its first write, again respecting
// chain dependencies.
func TestRetainAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Keyframe: 3}
	ctx, err := NewContextStore(cfg, L1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Protect("x", 0x1000, 8)
	m := machine(t)
	writeN(t, ctx, m, 4) // keyframes 1, 4; deltas 2, 3
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}

	ctx2, err := NewContextStore(cfg, L1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx2.Close()
	ctx2.Retain(1)
	ctx2.Protect("x", 0x1000, 8)
	m2 := machine(t)
	if _, err := ctx2.Restart(m2, nil); err != nil {
		t.Fatal(err)
	}
	writeN(t, ctx2, m2, 1) // seq 5: fresh keyframe (new session, new chain)
	// Seq 5 is self-contained, so everything older is pruned.
	want := []string{"ckpt-000005"}
	if got := ckptFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after cross-session prune: %v, want %v", got, want)
	}
	m3 := machine(t)
	if iter, err := ctx2.Restart(m3, nil); err != nil || iter != 1 {
		t.Fatalf("restart: iter=%d err=%v", iter, err)
	}
}

// A store holding an FNV-digest (kind-2) delta chain and, after it, later
// sessions' CRC-digest (kind-3) chains restarts from the newest checkpoint,
// and Retain resolves the dependencies of both kinds from their stored
// metadata, as it does for any earlier session's keys.
//
// testdata/kind2 is the first session as commit b74851c, the last
// kind-2 writer, stored it: this test's cfg, x = i checkpointed at
// iteration i for i = 1, 2, 3 (keyframe 1, deltas 2 and 3).
func TestRetainAcrossDeltaKinds(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "kind2"))); err != nil {
		t.Fatal(err)
	}
	cfg := store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Keyframe: 4}
	open := func(retain int) *Context {
		t.Helper()
		ctx, err := NewContextStore(cfg, L1)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Retain(retain)
		ctx.Protect("x", 0x1000, 8)
		return ctx
	}
	checkpoint := func(ctx *Context, m *interp.Machine, iters ...int64) {
		t.Helper()
		for _, iter := range iters {
			m.WriteRange(0x1000, []trace.Value{trace.IntValue(iter)})
			if err := ctx.Checkpoint(m, iter); err != nil {
				t.Fatalf("checkpoint %d: %v", iter, err)
			}
		}
	}
	restart := func(ctx *Context, want int64) *interp.Machine {
		t.Helper()
		m := machine(t)
		if iter, err := ctx.Restart(m, nil); err != nil || iter != want || m.ReadRange(0x1000, 1)[0].Int() != want {
			t.Fatalf("restart: iter=%d err=%v, want iteration %d", iter, err, want)
		}
		return m
	}
	keys := func(seqs ...int) string {
		var out []string
		for _, s := range seqs {
			out = append(out, fmt.Sprintf("ckpt-%06d", s))
		}
		return fmt.Sprint(out)
	}

	// Session 2 restarts from kind-2 delta 3, then writes keyframe 4 and
	// kind-3 deltas 5 and 6. Retaining four keeps 3-6, and delta 3 pins 1
	// and 2.
	ctx2 := open(4)
	checkpoint(ctx2, restart(ctx2, 3), 11, 12, 13)
	if got := ckptFiles(t, dir); fmt.Sprint(got) != keys(1, 2, 3, 4, 5, 6) || ctx2.Pruned() != 0 {
		t.Errorf("session 2 kept %v and pruned %d, want %s and 0", got, ctx2.Pruned(), keys(1, 2, 3, 4, 5, 6))
	}
	restart(ctx2, 13)
	if err := ctx2.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 3 wrote none of the keys, so each resolves from its metadata.
	ctx3 := open(2)
	defer ctx3.Close()
	for seq, want := range map[int][]int{1: {1}, 2: {1, 2}, 3: {1, 2, 3}, 4: {4}, 5: {4, 5}, 6: {4, 5, 6}} {
		deps, err := store.DependenciesOf(ctx3.backend, fmt.Sprintf("ckpt-%06d", seq))
		if err != nil || fmt.Sprint(deps) != keys(want...) {
			t.Errorf("Dependencies(%d) = %v, %v; want %s", seq, deps, err, keys(want...))
		}
	}
	// Its keyframe 7 and the retained delta 6, which pins 4 and 5, leave
	// nothing of the kind-2 chain.
	checkpoint(ctx3, restart(ctx3, 13), 21)
	if got := ckptFiles(t, dir); fmt.Sprint(got) != keys(4, 5, 6, 7) || ctx3.Pruned() != 3 {
		t.Errorf("session 3 kept %v and pruned %d, want %s and 3", got, ctx3.Pruned(), keys(4, 5, 6, 7))
	}
	restart(ctx3, 21)
}
