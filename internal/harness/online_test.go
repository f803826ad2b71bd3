package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// observeCut runs a fresh engine over p's records, cut into batches at the
// given ascending stream indices (the stream's end is implied), and returns
// the whole Result with its Timing cleared.
func observeCut(t *testing.T, p *Prepared, opts core.Options, cuts []int) *core.Result {
	t.Helper()
	eng, err := core.NewEngine(p.Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for _, end := range append(append([]int(nil), cuts...), len(p.Records)) {
		if end > start {
			eng.ObserveBatch(p.Records[start:end], nil)
			start = end
		}
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res.Timing = core.Timing{}
	return res
}

// TestObserveBatchEquivalenceAllBenchmarks: on every port, however the
// record stream is cut into batches — fixed sizes, the whole trace, seeded
// random cuts, and cuts placed on the loop's boundaries and inside its
// longest excursion — Engine.ObserveBatch yields the Result (provenance
// included, Timing aside) of per-record Observe and of core.Analyze.
func TestObserveBatchEquivalenceAllBenchmarks(t *testing.T) {
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := Prepare(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			opts := p.opts()
			opts.Explain = true
			n := len(p.Records)

			offline, err := core.Analyze(p.Records, p.Spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			offline.Timing = core.Timing{}
			eng, err := core.NewEngine(p.Spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.Records {
				eng.Observe(&p.Records[i])
			}
			want, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want.Timing = core.Timing{}
			if !reflect.DeepEqual(want, offline) {
				t.Fatalf("per-record Observe differs from core.Analyze:\nonline  %s\noffline %s", criticalReport(want), criticalReport(offline))
			}

			// The loop's first and last in-MCLR record, and the longest run
			// away from the MCLR between them.
			first, last, runStart, midExcursion, longest := -1, -1, 0, 0, 0
			for i := range p.Records {
				r := &p.Records[i]
				if r.Func != p.Spec.Function || r.Line < p.Spec.StartLine || r.Line > p.Spec.EndLine {
					continue
				}
				if first < 0 {
					first = i
				} else if i-runStart > longest {
					longest, midExcursion = i-runStart, runStart+(i-runStart)/2
				}
				last, runStart = i, i+1
			}

			batchings := map[string][]int{
				"whole":             nil,
				"before-loop-start": {first},
				"after-loop-start":  {first + 1},
				"before-loop-end":   {last},
				"after-loop-end":    {last + 1},
				"mid-excursion":     {midExcursion},
				"all-boundaries":    {first, first + 1, midExcursion, last, last + 1},
			}
			for _, size := range []int{1, 2, 7, 512} {
				var cuts []int
				for c := size; c < n; c += size {
					cuts = append(cuts, c)
				}
				batchings[fmt.Sprintf("every-%d", size)] = cuts
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for s := 0; s < 50; s++ {
				// Batch lengths from 1 up to a per-seed ceiling between 1 and
				// 4,096: some seeds cut every few records, some rarely.
				ceil := 1 << rng.Intn(13)
				var cuts []int
				for c := 1 + rng.Intn(ceil); c < n; c += 1 + rng.Intn(ceil) {
					cuts = append(cuts, c)
				}
				batchings[fmt.Sprintf("random-%d", s)] = cuts
			}
			for label, cuts := range batchings {
				if got := observeCut(t, p, opts, cuts); !reflect.DeepEqual(got, want) {
					t.Errorf("%s (%d batches): Result differs from per-record Observe:\ngot  %s %+v\nwant %s %+v",
						label, len(cuts)+1, criticalReport(got), got.Stats, criticalReport(want), want.Stats)
				}
			}
		})
	}
}

type discard struct{}

func (discard) Observe(*trace.Record) {}

// allocated runs fn and returns the bytes and objects it allocated.
func allocated(fn func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// TestOnlineFeedAllocations pins the cost TestEngineObserveZeroAllocs
// cannot see — what the tracer and the parking arena allocate over whole
// runs of the 14 ports at the benchmark's scale. The emitter writes into
// one recycled batch, so tracing into a discarding observer allocates per
// call frame depth and per print, not per record (the allocating emitter:
// 339 B and 3.43 objects per record). With the engine attached, what is
// allocated is its maps plus the longest excursion, parked once in chunks
// (re-growing a doubling arena: 330–680 B per record, worst on CG and AMG,
// whose excursions are longest).
func TestOnlineFeedAllocations(t *testing.T) {
	var records, traceBytes, traceObjects float64
	for _, b := range progs.All() {
		mod, err := interp.Compile(b.Source(24))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := b.Spec(24)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Module = mod

		bytes, objects := allocated(func() {
			if _, err := interp.TraceProgramInto(mod, discard{}); err != nil {
				t.Fatal(err)
			}
		})
		traceBytes += bytes
		traceObjects += objects

		var res *core.Result
		bytes, _ = allocated(func() {
			eng, err := core.NewEngine(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := interp.TraceProgramInto(mod, eng); err != nil {
				t.Fatal(err)
			}
			if res, err = eng.Finish(); err != nil {
				t.Fatal(err)
			}
		})
		n := float64(res.Stats.Records)
		records += n
		t.Logf("%-8s %7.0f records: tracer + engine allocate %.1f B per record", b.Name, n, bytes/n)
		if bytes/n > 128 {
			t.Errorf("%s: tracer + engine allocate %.1f B per record, want <= 128 — is the parked run re-grown instead of parked once?", b.Name, bytes/n)
		}
	}
	t.Logf("tracer alone, %0.f records: %.2f B and %.4f objects per record", records, traceBytes/records, traceObjects/records)
	if traceBytes/records > 16 || traceObjects/records > 0.25 {
		t.Errorf("tracing into a discarding observer allocates %.1f B and %.2f objects per record, want <= 16 B and <= 0.25", traceBytes/records, traceObjects/records)
	}
}
