package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autocheck/internal/faultinject"
	"autocheck/internal/obs"
)

// Async decorates a backend with asynchronous writes, the FTI-style
// dedicated-writer optimization: Put queues the caller's sections, which
// the store owns from then on (see Backend), and returns while a
// background goroutine persists them, so the application resumes
// computing during the checkpoint write. At most two checkpoints are in
// flight, one being written and one queued; a third Put blocks until the
// first is written (the application only ever waits when it outruns the
// storage medium by two full checkpoints).
//
// Write errors are deferred: they surface on the next Put, on Flush, or
// on Close. Reads (Get/List/Delete/Stats) flush pending writes first so
// the decorator is sequentially consistent with itself.
type Async struct {
	inner  Backend
	faults *faultinject.Registry
	ops    opSet
	// writerLat times the background persist of one queued checkpoint —
	// the half of a Put the application never waits for; ops.put times
	// only the synchronous enqueue half.
	writerLat *obs.Histogram
	jobs      chan asyncJob  // the one queued checkpoint; the writer holds the other
	wg        sync.WaitGroup // pending + in-flight writes

	// opMu serializes Put/Flush/Close so a Flush cannot observe a Put
	// between its closed-check and its enqueue (and Close cannot close
	// the jobs channel under a concurrent send).
	opMu sync.Mutex

	mu     sync.Mutex
	err    error // first deferred write error (sticky)
	closed bool
}

type asyncJob struct {
	key      string
	sections []Section
}

// NewAsync wraps inner with the asynchronous write path.
func NewAsync(inner Backend) *Async {
	a := &Async{inner: inner, jobs: make(chan asyncJob, 1)}
	go a.writer()
	return a
}

// SetFaults implements FaultInjectable.
func (a *Async) SetFaults(r *faultinject.Registry) { a.faults = r }

// SetObs implements Observable.
func (a *Async) SetObs(r *obs.Registry) {
	a.ops = newOpSet(r, "store.async")
	a.writerLat = r.Histogram("store.async.writer.ns")
}

func (a *Async) writer() {
	for job := range a.jobs {
		var t0 time.Time
		if a.writerLat != nil {
			t0 = time.Now()
		}
		err := a.writeJob(job)
		if a.writerLat != nil {
			a.writerLat.ObserveSince(t0)
		}
		if err != nil {
			a.mu.Lock()
			if a.err == nil {
				a.err = err
			}
			a.mu.Unlock()
		}
		a.wg.Done()
	}
}

// writeJob persists one queued checkpoint. An injected crash panic is
// contained here and converted into the decorator's sticky deferred
// error — the dedicated writer "died", its buffered write is lost, and
// the next Put/Flush/Close reports it — instead of taking down the
// whole process from a goroutine no harness can recover. Real panics
// from the inner backend still propagate.
func (a *Async) writeJob(job asyncJob) (err error) {
	defer func() {
		if p := recover(); p != nil {
			c, ok := faultinject.AsCrash(p)
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("store: async writer crashed: %w", c)
		}
	}()
	if ferr := a.faults.Hit(SiteAsyncWriter); ferr != nil {
		return ferr
	}
	return a.inner.Put(job.key, job.sections)
}

func (a *Async) deferredErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Put implements Backend: enqueue, blocking only while two checkpoints
// are in flight. The recorded latency is the synchronous half only —
// what the application actually waits for; store.async.writer.ns has the
// persist.
func (a *Async) Put(key string, sections []Section) error {
	start := a.ops.put.Start()
	err := a.put(key, sections)
	a.ops.put.Done(start, 0, errClass(err))
	return err
}

func (a *Async) put(key string, sections []Section) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return errors.New("store: async backend closed")
	}
	if err := a.err; err != nil {
		a.mu.Unlock()
		return err
	}
	a.mu.Unlock()
	if err := a.faults.Hit(SiteAsyncPut); err != nil {
		return err
	}
	a.wg.Add(1)
	a.jobs <- asyncJob{key: key, sections: sections} // blocks iff one is queued behind the one being written
	return nil
}

// Flush implements Backend: wait for queued writes and report the first
// deferred error.
func (a *Async) Flush() error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	return a.flush()
}

func (a *Async) flush() error {
	a.wg.Wait()
	if err := a.deferredErr(); err != nil {
		return err
	}
	return a.inner.Flush()
}

// drain waits for in-flight writes under opMu: sync.WaitGroup forbids a
// Wait concurrent with a Put's Add-from-zero, and holding opMu also
// guarantees a read started after a Put returned observes that write.
func (a *Async) drain() {
	a.opMu.Lock()
	a.wg.Wait()
	a.opMu.Unlock()
}

// Get implements Backend (flushes first). The recorded latency includes
// the drain wait, so store.async.get.ns minus the inner get is the cost
// of reading behind buffered writes.
func (a *Async) Get(key string) ([]Section, error) {
	start := a.ops.get.Start()
	a.drain()
	sections, err := a.inner.Get(key)
	a.ops.get.Done(start, 0, errClass(err))
	return sections, err
}

// List implements Backend (flushes first).
func (a *Async) List() ([]string, error) {
	a.drain()
	return a.inner.List()
}

// Delete implements Backend. Unlike the read-side operations, Delete
// holds opMu across both the drain and the inner delete: with the
// drain-then-release pattern a Put accepted in the window between the
// two could be applied by the background writer after the inner delete
// ran — or the delete could land between the Put's enqueue and its
// write, deleting nothing and letting the buffered write resurrect the
// object. Holding opMu makes Delete atomic with respect to Put: every
// Put that returned before Delete was called is drained and then
// deleted; every Put issued while Delete runs is applied after it.
func (a *Async) Delete(key string) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.wg.Wait()
	if err := a.faults.Hit(SiteAsyncDelete); err != nil {
		return err
	}
	return a.inner.Delete(key)
}

// Stats implements Backend (flushes first so the numbers are settled).
func (a *Async) Stats() Stats {
	a.drain()
	return a.inner.Stats()
}

// Dependencies forwards to the inner backend's resolver (flushes first:
// a dependency answer must reflect every Put already accepted).
func (a *Async) Dependencies(key string) ([]string, error) {
	a.drain()
	return DependenciesOf(a.inner, key)
}

// Close implements Backend: drain, stop the writer, close the inner
// backend.
func (a *Async) Close() error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	flushErr := a.flush()
	a.mu.Lock()
	alreadyClosed := a.closed
	a.closed = true
	a.mu.Unlock()
	if alreadyClosed {
		return flushErr
	}
	close(a.jobs)
	if err := a.inner.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	return flushErr
}
