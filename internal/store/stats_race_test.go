package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestStatsRaceUnderConcurrentOps pins the Stats() audit: every backend
// and decorator must keep its counters (and everything else) race-free
// under concurrent Put/Get/List/Delete/Stats — the Async drain path
// included. The test asserts nothing about
// exact counts (interleavings vary); it exists to fail under -race (the
// CI race step runs this package) and to catch panics from torn
// internal state. Operation errors are expected by design — e.g. a Get
// racing a Delete, or an incremental delta whose chain a concurrent
// Delete broke — and are ignored; only the counters' integrity is under
// test.
func TestStatsRaceUnderConcurrentOps(t *testing.T) {
	for name, b := range openAll(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			defer b.Close()
			const (
				workers = 4
				iters   = 40
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						key := fmt.Sprintf("ckpt-%06d", (w*iters+i)%7)
						switch i % 5 {
						case 0, 1:
							b.Put(key, sampleSections(byte(w*iters+i)))
						case 2:
							b.Get(key)
						case 3:
							b.List()
							b.Stats()
						case 4:
							if w == 0 {
								b.Delete(key)
							} else {
								b.Stats()
							}
						}
					}
				}(w)
			}
			wg.Wait()
			st := b.Stats()
			if st.Puts == 0 || st.BytesWritten <= 0 {
				t.Errorf("no writes recorded under concurrency: %+v", st)
			}
		})
	}
}
