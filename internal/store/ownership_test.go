package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// arrivals keeps every buffer that crossed a layer with the checksum it
// had on arrival. Under Backend's ownership rule none of them changes.
type arrivals struct {
	bufs [][]byte
	sums []uint32
}

func (a *arrivals) keep(sections []Section) {
	for _, s := range sections {
		a.bufs = append(a.bufs, s.Data)
		a.sums = append(a.sums, crc32.ChecksumIEEE(s.Data))
	}
}

// rewritten counts the kept buffers that no longer hold what they held
// on arrival.
func (a *arrivals) rewritten() int {
	n := 0
	for i, b := range a.bufs {
		if crc32.ChecksumIEEE(b) != a.sums[i] {
			n++
		}
	}
	return n
}

// nextSections hands sections on the way the checkpoint layer does: the
// metadata and some other sections change, each into a fresh buffer, and
// an unchanged section is the previous put's slice again. Nothing handed
// over is written afterwards.
func nextSections(rng *rand.Rand, prev []Section) []Section {
	if prev == nil {
		return sampleSections(0)
	}
	out := slices.Clone(prev)
	out[0].Data = []byte{byte(rng.Intn(256)), 1, 2, 3}
	for i := 1; i < len(out); i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		data := bytes.Clone(out[i].Data)
		data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		out[i].Data = data
	}
	return out
}

// TestWhatCrossesALayerIsReadOnly: on every backend and decorator stack,
// a churn of puts, deltas, overwrites, gets, flushes and deletes leaves
// every buffer handed to Put and every buffer a Get returned as it was on
// arrival. Two Gets of one key agree, and a Get result held across an
// overwrite of its key keeps its bytes.
func TestWhatCrossesALayerIsReadOnly(t *testing.T) {
	stacks := openAll(t)
	file, err := NewFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	stacks["decorate-incremental"] = Decorate(NewMemory(), Config{Incremental: true, Keyframe: 3})
	stacks["decorate-async"] = Decorate(NewMemory(), Config{Async: true})
	stacks["decorate-file-incremental-async"] = Decorate(file, Config{Incremental: true, Async: true, Keyframe: 3})
	for name, b := range stacks {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			var kept arrivals
			put := func(key string, sections []Section) {
				t.Helper()
				kept.keep(sections)
				if err := b.Put(key, sections); err != nil {
					t.Fatalf("Put %s: %v", key, err)
				}
			}
			get := func(key string, want []Section) []Section {
				t.Helper()
				got, err := b.Get(key)
				if err != nil {
					t.Fatalf("Get %s: %v", key, err)
				}
				kept.keep(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Get %s: not the sections that were put", key)
				}
				return got
			}
			flush := func() {
				t.Helper()
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			var sections []Section
			const puts = 24
			for i := 1; i <= puts; i++ {
				key := fmt.Sprintf("ckpt-%06d", i)
				sections = nextSections(rng, sections)
				put(key, sections)
				held := get(key, sections)
				get(key, sections) // agrees with the first Get
				if i%5 == 0 {
					old := sections
					sections = nextSections(rng, sections)
					put(key, sections)
					flush() // the replicated tier reads an overwrite back after Flush
					get(key, sections)
					if !reflect.DeepEqual(held, old) {
						t.Fatalf("Get %s: a held result changed when the key was overwritten", key)
					}
				}
				if i%4 == 0 {
					flush()
				}
			}
			for i := 1; i <= puts; i += 3 {
				if err := b.Delete(fmt.Sprintf("ckpt-%06d", i)); err != nil {
					t.Fatal(err)
				}
			}
			flush()
			if n := kept.rewritten(); n != 0 {
				t.Errorf("%d of %d buffers changed after crossing a layer", n, len(kept.bufs))
			}
		})
	}
}

// gatedBackend holds every Put until gate is closed.
type gatedBackend struct {
	Backend
	gate chan struct{}
}

func (g *gatedBackend) Put(key string, sections []Section) error {
	<-g.gate
	return g.Backend.Put(key, sections)
}

// TestAsyncBoundsCheckpointsInFlight: while the inner write is held, two
// Puts return, one being written and one queued, and a third blocks
// until the first is written.
func TestAsyncBoundsCheckpointsInFlight(t *testing.T) {
	inner := &gatedBackend{Backend: NewMemory(), gate: make(chan struct{})}
	a := NewAsync(inner)
	defer a.Close()
	for i := byte(1); i <= 2; i++ {
		if err := a.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(i)); err != nil {
			t.Fatal(err)
		}
	}
	third := make(chan error, 1)
	go func() { third <- a.Put("ckpt-000003", sampleSections(3)) }()
	select {
	case err := <-third:
		close(inner.gate) // so Close can drain
		t.Fatalf("a third Put returned (%v) while two checkpoints were in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(inner.gate)
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := inner.Stats(); st.Puts != 3 {
		t.Errorf("inner puts = %d, want 3", st.Puts)
	}
}
