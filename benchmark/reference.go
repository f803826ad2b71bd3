package main

import (
	"syscall"
	"time"
)

// The reference pass is a fixed piece of work the benchmark owns: refill
// and read back a 20,000-entry map of small structs, then copy 8 MB
// twice. It touches nothing of the repository and allocates nothing, so
// neither a commit nor the heap of the workload around it changes it.
//
// It exists because of where the benchmark runs. The sandbox's other
// tenants contend for cache and memory bandwidth, so the same work takes
// up to 1.6 times as long, for seconds or for minutes, while a pure spin
// loop hardly notices. A run therefore times this pass every refEvery
// and reports its timings scaled to what they would be with the pass at
// refNominal, its duration on the quiet sandbox. Over 25 windows of 12
// seconds, three of them badly disturbed, the scaled timings of a
// streaming analysis, a checkpoint and a remote put and get varied by 4
// to 6.5% where the raw ones varied by 8 to 14%. Map work alone tracks
// the engine and the checkpoint layer, copying alone tracks the HTTP
// path, and this mix tracks all four; a pointer chase through 16 MB and
// a spin loop track none. README.md has the table.
const (
	refEntries = 20000
	refBytes   = 8 << 20
	refCopies  = 2
	refEvery   = 200 * time.Millisecond
	refNominal = 2.6 // ms per pass on the quiet sandbox, its data cold each time
)

// refValue has the shape of the values the interpreter and the
// checkpoint layer keep in maps, and is the benchmark's own type so that
// a change to theirs leaves the pass alone.
type refValue struct {
	kind uint8
	i    int64
	f    float64
	addr uint64
}

type reference struct {
	m        map[uint64]refValue
	src, dst []byte
	sink     float64
}

// newReference maps the copy buffers outside the Go heap, where they do
// not move the collector's pacing of the workload's own garbage.
func newReference() (*reference, error) {
	buf, err := syscall.Mmap(-1, 0, 2*refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return &reference{m: make(map[uint64]refValue, refEntries), src: buf[:refBytes], dst: buf[refBytes:]}, nil
}

// pass runs the reference work once and returns how long it took.
func (r *reference) pass() time.Duration {
	t0 := time.Now()
	clear(r.m)
	for i := uint64(0); i < refEntries; i++ {
		r.m[i*8] = refValue{f: float64(i)}
	}
	for i := uint64(0); i < refEntries; i++ {
		r.sink += r.m[i*8].f
	}
	for k := 0; k < refCopies; k++ {
		copy(r.dst, r.src)
	}
	r.sink += float64(r.dst[0])
	return time.Since(t0)
}

// calibrate times a reference pass if none has been timed for refEvery
// and no other caller is timing one now.
func (e *env) calibrate() {
	if !e.refMu.TryLock() {
		return
	}
	defer e.refMu.Unlock()
	if time.Since(e.refLast) < refEvery {
		return
	}
	e.refMS = append(e.refMS, float64(e.ref.pass())/1e6)
	e.refLast = time.Now()
}

// speed is what a timing of this run is multiplied by to give what it
// would have been with the reference pass at its nominal duration.
func (e *env) speed() float64 { return refNominal / quiet(e.refMS) }
