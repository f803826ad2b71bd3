// Store-layout tests: every session's objects are keys in the one
// "sessions" namespace, so the embedding server holds one namespace for
// the ingest service, a deleted session leaves nothing behind, a
// standalone service recovers evicted sessions, a finished session
// recovers without reading a chunk, and a Delete touches its own keys
// only, by name.
package analysis_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autocheck/internal/analysis"
	"autocheck/internal/server"
	"autocheck/internal/store"
)

// TestSessionsShareOneNamespace runs sessions to completion and deletes
// them through a server with ingest mounted: the ingest service adds at
// most one namespace to the server, and on the file kind the root then
// holds only an empty sessions directory.
func TestSessionsShareOneNamespace(t *testing.T) {
	p, want := prep(t)
	parts := chunks(p.BinData(), 3)
	const sessions = 5
	for _, kind := range []store.Kind{store.KindMemory, store.KindFile} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := server.Config{Store: store.Config{Kind: kind}, Ingest: &analysis.Config{SweepEvery: -1}}
			if kind == store.KindFile {
				cfg.Store.Dir = t.TempDir()
			}
			srv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			before := srv.Stats().Namespaces
			svc := srv.Ingest()
			for i := 0; i < sessions; i++ {
				st, err := svc.Create("default", p.Spec, true)
				if err != nil {
					t.Fatal(err)
				}
				for seq, part := range parts {
					if err := svc.Chunk(st.ID, seq, part); err != nil {
						t.Fatal(err)
					}
				}
				res, err := svc.Finish(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got := report(res); got != want {
					t.Fatalf("session %d report differs:\nwant %s\ngot  %s", i, want, got)
				}
				if err := svc.Delete(st.ID); err != nil {
					t.Fatal(err)
				}
			}
			if grown := srv.Stats().Namespaces - before; grown > 1 {
				t.Errorf("%d sessions grew the server by %d namespaces, want at most 1", sessions, grown)
			}
			if kind != store.KindFile {
				return
			}
			root, err := os.ReadDir(cfg.Store.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(root) != 1 || root[0].Name() != "sessions" || !root[0].IsDir() {
				names := make([]string, len(root))
				for i, e := range root {
					names[i] = e.Name()
				}
				t.Fatalf("store root holds %v, want only sessions/", names)
			}
			left, err := os.ReadDir(filepath.Join(cfg.Store.Dir, "sessions"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("deleted sessions left %s behind", e.Name())
			}
		})
	}
}

// TestStandaloneResumesEvictedSession: a service with no Open keeps its
// sessions in one memory backend for its life, so a session the janitor
// evicted recovers on its next chunk and finishes with the
// uninterrupted result.
func TestStandaloneResumesEvictedSession(t *testing.T) {
	p, want := prep(t)
	clock := time.Unix(1000, 0)
	svc := analysis.NewService(analysis.Config{
		SweepEvery: -1, IdleTTL: time.Minute,
		Now: func() time.Time { return clock },
	})
	defer svc.Close()
	parts := chunks(p.BinData(), 4)
	st, err := svc.Create("default", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Chunk(st.ID, 0, parts[0]); err != nil {
		t.Fatal(err)
	}
	if n := svc.EvictIdle(clock.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	for i := 1; i < len(parts); i++ {
		if err := svc.Chunk(st.ID, i, parts[i]); err != nil {
			t.Fatalf("chunk %d after eviction: %v", i, err)
		}
	}
	res, err := svc.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := report(res); got != want {
		t.Errorf("resumed report differs:\nwant %s\ngot  %s", want, got)
	}
}

// TestFinishedRecoveryReadsNoChunk: a fresh service recovers a finished
// session's status from two reads, its meta and its result; the chunk
// count comes from the key list and the bytes from the result.
func TestFinishedRecoveryReadsNoChunk(t *testing.T) {
	p, _ := prep(t)
	ss := newSharedStore()
	gets := func() (n int64) {
		ss.mu.Lock()
		defer ss.mu.Unlock()
		for _, b := range ss.m {
			n += b.Stats().Gets
		}
		return n
	}
	parts := chunks(p.BinData(), 6)
	a := analysis.NewService(analysis.Config{SweepEvery: -1, Open: ss.open})
	st, err := a.Create("default", p.Spec, true)
	if err != nil {
		t.Fatal(err)
	}
	for seq, part := range parts {
		if err := a.Chunk(st.ID, seq, part); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Finish(st.ID); err != nil {
		t.Fatal(err)
	}
	want, err := a.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	b := analysis.NewService(analysis.Config{SweepEvery: -1, Open: ss.open})
	defer b.Close()
	before := gets()
	got, err := b.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("recovered status %+v, want %+v", got, want)
	}
	if n := gets() - before; n != 2 {
		t.Errorf("recovering a finished %d-chunk session cost %d Gets, want 2 (meta and result)", len(parts), n)
	}
}

// TestDeleteLeavesOtherSessionsWhole: two sessions interleave their
// chunks through a server whose store stack includes the incremental
// decorator. One is deleted; the other, evicted and recovered by
// replaying its stored chunks, finishes with the uninterrupted result.
// Each session's objects must therefore stand without the other's: no
// delta may chain from one session's object to another's. server.New
// opens every namespace with store.Open, which adds no incremental
// layer, so none does; a sessions namespace with that layer fails here,
// the kept session's meta being a delta over the deleted one's.
func TestDeleteLeavesOtherSessionsWhole(t *testing.T) {
	p, want := prep(t)
	parts := chunks(p.BinData(), 4)
	for victim := 0; victim < 2; victim++ {
		t.Run(fmt.Sprintf("delete session %d", victim+1), func(t *testing.T) {
			clock := time.Unix(1000, 0)
			srv, err := server.New(server.Config{
				Store: store.Config{Kind: store.KindMemory, Incremental: true},
				Ingest: &analysis.Config{SweepEvery: -1, IdleTTL: time.Minute,
					NewID: fixedIDs("s"), Now: func() time.Time { return clock }},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			svc := srv.Ingest()
			var ids [2]string
			for i := range ids {
				st, err := svc.Create("default", p.Spec, true)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = st.ID
			}
			last := len(parts) - 1
			for seq := 0; seq < last; seq++ {
				for _, id := range ids {
					if err := svc.Chunk(id, seq, parts[seq]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := svc.Delete(ids[victim]); err != nil {
				t.Fatal(err)
			}
			if n := svc.EvictIdle(clock.Add(2 * time.Minute)); n != 1 {
				t.Fatalf("evicted %d sessions, want 1", n)
			}
			kept := ids[1-victim]
			if err := svc.Chunk(kept, last, parts[last]); err != nil {
				t.Fatalf("session %s after deleting %s: chunk %d: %v", kept, ids[victim], last, err)
			}
			res, err := svc.Finish(kept)
			if err != nil {
				t.Fatal(err)
			}
			if got := report(res); got != want {
				t.Errorf("session %s after deleting %s: report differs:\nwant %s\ngot  %s", kept, ids[victim], want, got)
			}
		})
	}
}

// listCounter counts the List calls that reach a backend.
type listCounter struct {
	store.Backend
	lists *atomic.Int64
}

func (l listCounter) List() ([]string, error) {
	l.lists.Add(1)
	return l.Backend.List()
}

// TestDeleteListsNothing: with other sessions live, Delete removes a
// finished and an active session's keys — meta, result and every chunk —
// by name: it lists nothing, and every other session's objects are left
// as they were.
func TestDeleteListsNothing(t *testing.T) {
	p, _ := prep(t)
	parts := chunks(p.BinData(), 3)
	mem := store.NewMemory()
	var lists atomic.Int64
	svc := analysis.NewService(analysis.Config{SweepEvery: -1, NewID: fixedIDs("s"),
		Open: func(string) (store.Backend, error) { return listCounter{mem, &lists}, nil }})
	defer svc.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := svc.Create("default", p.Spec, true)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		n := len(parts) - i%2 // the odd sessions stay a chunk short, active
		for seq := 0; seq < n; seq++ {
			if err := svc.Chunk(st.ID, seq, parts[seq]); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			if _, err := svc.Finish(st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	objects := func(skip map[string]bool) map[string][]store.Section {
		keys, err := mem.List()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]store.Section)
		for _, k := range keys {
			if id, _, _ := strings.Cut(k, "."); skip[id] {
				continue
			}
			if out[k], err = mem.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	deleted := make(map[string]bool)
	for _, victim := range ids[:2] { // one finished, one active
		deleted[victim] = true
		want := objects(deleted)
		lists.Store(0)
		if err := svc.Delete(victim); err != nil {
			t.Fatal(err)
		}
		if n := lists.Load(); n != 0 {
			t.Errorf("deleting %s listed the namespace %d times", victim, n)
		}
		if got := objects(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("after deleting %s the store holds %d objects, want the other sessions' %d as they were", victim, len(got), len(want))
		}
	}
}
