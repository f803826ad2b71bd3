// Store-layout tests: every session's objects are keys in the one
// "sessions" namespace, so the embedding server holds one namespace for
// the ingest service, a deleted session leaves nothing behind, a
// standalone service recovers evicted sessions, and a finished session
// recovers without reading a chunk.
package analysis_test

import (
	"context"
	"os"
	"path/filepath"
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
