package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autocheck/internal/faultinject"
)

// baseBackends returns one fresh instance of each base backend with the
// given registry armed on it.
func baseBackends(t *testing.T, reg *faultinject.Registry) map[string]Backend {
	t.Helper()
	file, err := NewFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]Backend{"memory": NewMemory(), "file": file}
	for _, b := range all {
		InjectFaults(b, reg)
	}
	return all
}

func TestInjectedPutErrorAbortsCommit(t *testing.T) {
	for name := range baseBackends(t, nil) {
		t.Run(name, func(t *testing.T) {
			reg := faultinject.NewRegistry(1)
			reg.Arm(faultinject.Failpoint{Site: SitePut, Action: faultinject.ActionError, Nth: 2})
			b := baseBackends(t, reg)[name]
			defer b.Close()
			if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
				t.Fatalf("first put: %v", err)
			}
			err := b.Put("ckpt-000002", sampleSections(2))
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("second put = %v, want injected error", err)
			}
			// The aborted put committed nothing; the first object is intact.
			if _, err := b.Get("ckpt-000002"); !errors.Is(err, ErrNotFound) {
				t.Errorf("aborted put left a readable object (err=%v)", err)
			}
			if _, err := b.Get("ckpt-000001"); err != nil {
				t.Errorf("first object damaged: %v", err)
			}
		})
	}
}

func TestInjectedTornWriteIsRejectedOnGet(t *testing.T) {
	for name := range baseBackends(t, nil) {
		t.Run(name, func(t *testing.T) {
			reg := faultinject.NewRegistry(7)
			reg.Arm(faultinject.Failpoint{Site: SitePut, Action: faultinject.ActionTorn, Nth: 2})
			b := baseBackends(t, reg)[name]
			defer b.Close()
			if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
				t.Fatalf("first put: %v", err)
			}
			err := b.Put("ckpt-000002", sampleSections(2))
			if !faultinject.IsTorn(err) {
				t.Fatalf("second put = %v, want torn-write error", err)
			}
			// The torn object reached the medium, so the read path — not the
			// write path — must be the line of defense.
			if _, err := b.Get("ckpt-000002"); err == nil || errors.Is(err, ErrNotFound) {
				t.Errorf("torn object served or invisible (err=%v), want verification failure", err)
			}
			if _, err := b.Get("ckpt-000001"); err != nil {
				t.Errorf("first object damaged by the torn write: %v", err)
			}
			// With the failpoint spent, a rewrite repairs the key.
			if err := b.Put("ckpt-000002", sampleSections(3)); err != nil {
				t.Fatalf("repair put: %v", err)
			}
			if _, err := b.Get("ckpt-000002"); err != nil {
				t.Errorf("repaired object unreadable: %v", err)
			}
		})
	}
}

func TestInjectedGetAndDeleteErrors(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteGet, Action: faultinject.ActionError, Nth: 1})
	reg.Arm(faultinject.Failpoint{Site: SiteDelete, Action: faultinject.ActionError, Nth: 1})
	b := NewMemory()
	b.SetFaults(reg)
	if err := b.Put("k", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("k"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("first get = %v, want injected", err)
	}
	if _, err := b.Get("k"); err != nil {
		t.Fatalf("second get: %v", err)
	}
	if err := b.Delete("k"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("first delete = %v, want injected", err)
	}
	if _, err := b.Get("k"); err != nil {
		t.Fatalf("object gone after failed delete: %v", err)
	}
}

func TestAsyncWriterCrashBecomesDeferredError(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteAsyncWriter, Action: faultinject.ActionCrash, Nth: 1})
	inner := NewMemory()
	a := NewAsync(inner)
	a.SetFaults(reg)
	if err := a.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("put (accepted into staging): %v", err)
	}
	err := a.Flush()
	if err == nil || !strings.Contains(err.Error(), "async writer crashed") {
		t.Fatalf("flush = %v, want writer-crash error", err)
	}
	// The crash is sticky and the decorator stays shut down cleanly: the
	// next Put reports it, Close reports it, nothing panics the process.
	if err := a.Put("ckpt-000002", sampleSections(2)); err == nil {
		t.Error("put after writer crash succeeded")
	}
	if err := a.Close(); err == nil || !strings.Contains(err.Error(), "async writer crashed") {
		t.Errorf("close = %v, want writer-crash error", err)
	}
	if _, err := inner.Get("ckpt-000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("crashed write landed anyway (err=%v)", err)
	}
}

// TestAsyncDeleteOrderedAgainstConcurrentPut pins the fix for the
// delete/buffered-put race: Delete holds the operation lock across its
// drain AND the inner delete, so a Put issued while the delete is in
// progress is applied strictly after it — it can never be applied by
// the background writer first and then deleted (lost update), nor can
// the delete land between enqueue and write so the buffered Put
// resurrects the object.
func TestAsyncDeleteOrderedAgainstConcurrentPut(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{
		Site: SiteAsyncDelete, Action: faultinject.ActionDelay, Nth: 1, Delay: 50 * time.Millisecond,
	})
	inner := NewMemory()
	a := NewAsync(inner)
	a.SetFaults(reg)
	defer a.Close()
	if err := a.Put("k", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- a.Delete("k") }()
	// Wait until the delete is parked inside its critical section (the
	// delay failpoint has fired), then issue a Put of the same key. With
	// the fix it must serialize after the delete; before the fix it
	// could be written by the background writer and then destroyed by
	// the still-running delete.
	for reg.Fired() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.Put("k", sampleSections(9)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("k")
	if err != nil {
		t.Fatalf("the put issued during the delete was lost: %v", err)
	}
	if string(got[0].Data) != string(sampleSections(9)[0].Data) {
		t.Fatal("object content is not the concurrent put's")
	}
}

// TestAsyncDeleteWaitsForBufferedPut: a Delete issued after a Put
// returned (but while the write is still buffered behind a slow writer)
// must apply after that write — the object ends up absent, not
// resurrected by the late write.
func TestAsyncDeleteWaitsForBufferedPut(t *testing.T) {
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{
		Site: SiteAsyncWriter, Action: faultinject.ActionDelay, Nth: 1, Delay: 30 * time.Millisecond,
	})
	inner := NewMemory()
	a := NewAsync(inner)
	a.SetFaults(reg)
	defer a.Close()
	if err := a.Put("k", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	// The write is buffered (the writer is sleeping in the failpoint).
	if err := a.Delete("k"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := a.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("buffered put resurrected the deleted object (err=%v)", err)
	}
	if _, err := inner.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("inner store still holds the object (err=%v)", err)
	}
}

func TestIncrementalDeleteOfIntermediateDeltaBreaksChainTyped(t *testing.T) {
	inner := NewMemory()
	inc := NewIncremental(inner, 100, 64) // one keyframe, then deltas only
	keys := []string{"ckpt-000001", "ckpt-000002", "ckpt-000003", "ckpt-000004"}
	for i, k := range keys {
		sections := sampleSections(byte(i + 1))
		if err := inc.Put(k, sections); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	// Retention via DependenciesOf would refuse this: deleting an
	// intermediate delta out from under a retained chain.
	if err := inc.Delete("ckpt-000003"); err != nil {
		t.Fatal(err)
	}
	_, err := inc.Get("ckpt-000004")
	var broken *ChainBrokenError
	if !errors.As(err, &broken) {
		t.Fatalf("get past the hole = %v, want *ChainBrokenError", err)
	}
	if broken.Key != "ckpt-000004" {
		t.Errorf("broken.Key = %q", broken.Key)
	}
	// Earlier links are still reconstructible.
	if _, err := inc.Get("ckpt-000002"); err != nil {
		t.Errorf("delta before the hole unreadable: %v", err)
	}
	// Deleting the keyframe breaks every delta, typed the same way.
	if err := inc.Delete("ckpt-000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Get("ckpt-000002"); !errors.As(err, &broken) {
		t.Fatalf("get with keyframe gone = %v, want *ChainBrokenError", err)
	}
}

func TestIncrementalDependenciesProtectIntermediates(t *testing.T) {
	// The Retain path must keep intermediate deltas alive: every delta's
	// dependency set includes the whole chain up to itself.
	inner := NewMemory()
	inc := NewIncremental(inner, 100, 64)
	keys := []string{"ckpt-000001", "ckpt-000002", "ckpt-000003"}
	for i, k := range keys {
		if err := inc.Put(k, sampleSections(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	deps, err := DependenciesOf(inc, "ckpt-000003")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(deps) != fmt.Sprint(keys) {
		t.Fatalf("Dependencies = %v, want %v", deps, keys)
	}
}

func TestOpenArmsFaultsAcrossTheChain(t *testing.T) {
	reg := faultinject.NewRegistry(3)
	reg.Arm(faultinject.Failpoint{Site: SiteIncrementalPut, Action: faultinject.ActionError, Nth: 1})
	base, err := Open(Config{Kind: KindMemory, CacheMB: 1, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	b := Decorate(base, Config{Incremental: true, Async: true, Faults: reg})
	defer b.Close()
	// The incremental decorator sits under async, so its injected error
	// surfaces as the async deferred error — proof both layers are armed.
	if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("put (staged): %v", err)
	}
	if err := b.Flush(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("flush = %v, want the incremental layer's injected error", err)
	}
}

func TestConcurrentHitsUnderRace(t *testing.T) {
	// Registry evaluation under concurrent sites (for the -race step).
	reg := faultinject.NewRegistry(5)
	reg.Arm(faultinject.Failpoint{Site: SiteGet, Action: faultinject.ActionError, EveryK: 3})
	b := NewMemory()
	b.SetFaults(reg)
	if err := b.Put("k", sampleSections(1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Get("k")
			}
		}()
	}
	wg.Wait()
	if fired := reg.Fired(); fired != 400/3 {
		t.Fatalf("every=3 fired %d times over 400 hits, want %d", fired, 400/3)
	}
}
