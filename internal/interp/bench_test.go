package interp

import (
	"testing"

	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// discardBatches is a BatchObserver that drops what it is given, so a
// traced run costs the interpreter and the emitter only.
type discardBatches struct{ records *int }

func (d discardBatches) Observe(*trace.Record)                      { *d.records++ }
func (d discardBatches) ObserveBatch(rs []trace.Record, _ []uint32) { *d.records += len(rs) }

// BenchmarkTraceProgramInto traces the 14 ports at scale 24, compiled
// once, into a discarding BatchObserver: one op is the 14 traced runs.
//
//	go test -run '^$' -bench TraceProgramInto -benchmem ./internal/interp/
func BenchmarkTraceProgramInto(b *testing.B) {
	var mods []*ir.Module
	for _, p := range progs.All() {
		mod, err := Compile(p.Source(24))
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		mods = append(mods, mod)
	}
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mod := range mods {
			if _, err := TraceProgramInto(mod, discardBatches{&records}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
