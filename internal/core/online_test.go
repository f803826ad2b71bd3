package core

import (
	"reflect"
	"testing"

	"autocheck/internal/interp"
	"autocheck/internal/trace"
)

// recordObserver is the engine without ObserveBatch: TraceInto hands it
// the records one by one, through Engine.Observe.
type recordObserver struct{ e *Engine }

func (o recordObserver) Observe(r *trace.Record) { o.e.Observe(r) }

// runOnline executes a program with the engine wired as the tracer's
// per-record observer (the batch hand-off is exercised everywhere else).
func runOnline(t *testing.T, src string, spec LoopSpec, opts Options) *Result {
	t.Helper()
	mod, err := interp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewEngine(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod)
	m.TraceInto(recordObserver{col})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := col.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOnlineMatchesOffline: the single-pass collector must produce the
// same MLI set and critical variables as the two-pass offline pipeline.
func TestOnlineMatchesOffline(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		spec LoopSpec
	}{
		{"fig4", fig4Source, fig4Spec},
		{"cg", cgSource, cgSpec},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			recs, _ := traceOf(t, tc.src)
			offline, err := Analyze(recs, tc.spec, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			online := runOnline(t, tc.src, tc.spec, DefaultOptions())

			if !reflect.DeepEqual(typesByName(offline), typesByName(online)) {
				t.Errorf("critical sets differ:\noffline %v\nonline  %v",
					typesByName(offline), typesByName(online))
			}
			var offMLI, onMLI []string
			for _, v := range offline.MLI {
				offMLI = append(offMLI, v.Name)
			}
			for _, v := range online.MLI {
				onMLI = append(onMLI, v.Name)
			}
			if !reflect.DeepEqual(offMLI, onMLI) {
				t.Errorf("MLI sets differ: offline %v online %v", offMLI, onMLI)
			}
			if online.Stats.Records != offline.Stats.Records {
				t.Errorf("record counts differ: %d vs %d",
					online.Stats.Records, offline.Stats.Records)
			}
			// Region boundaries: the online state machine flips to region C
			// on the first post-loop main record; the offline partition ends
			// region B at the last in-loop record. Both must agree that
			// region B dominates.
			if online.Stats.RegionB <= 0 || online.Stats.RegionA <= 0 || online.Stats.RegionC <= 0 {
				t.Errorf("online regions: %+v", online.Stats)
			}
		})
	}
}

func TestOnlineLoopNeverExecuted(t *testing.T) {
	mod, err := interp.Compile("int main() { print(1); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewEngine(LoopSpec{Function: "main", StartLine: 100, EndLine: 200}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod)
	m.TraceInto(recordObserver{col})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Finish(); err == nil {
		t.Error("Finish should fail when the loop never executed")
	}
}
