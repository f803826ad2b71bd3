package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/progs"
)

// tiny is the benchmark shrunk to a second per run with counts that
// repeat exactly: small traces, a short ring, one set-up, fixed rounds.
func tiny(workload string, seed int64) config {
	return config{workload: workload, seed: seed, scale: 8, ring: 8, setups: 1, rounds: 1}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func emitted(out *outcome) []string {
	var names []string
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestEveryWorkloadCompletes(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := runEndToEnd(tiny(w.name, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", out.Attempted, out.Failed)
			}
			if got, want := emitted(out), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("emitted %v, declared %v", got, want)
			}
			for name, m := range out.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

// The same seed gives the same inputs, so counts and exact ratios
// repeat; another seed changes the payloads but not how much work a
// round is.
func TestRunsRepeat(t *testing.T) {
	for _, name := range []string{"stream-binary", "ckpt-local", "ckpt-service"} {
		a, err := runEndToEnd(tiny(name, 7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := runEndToEnd(tiny(name, 7))
		c, _ := runEndToEnd(tiny(name, 8))
		if a.Attempted != b.Attempted || a.records != b.records || a.Attempted != c.Attempted || a.records != c.records {
			t.Errorf("%s: ops and records %d/%d, %d/%d, %d/%d differ between runs",
				name, a.Attempted, a.records, b.Attempted, b.records, c.Attempted, c.records)
		}
	}
	exact := []string{"checkpoint.stored_bytes_per_byte", "store.incremental.bytes_ratio", "trace.binary_text_ratio"}
	traced := func(seed int64) *outcome {
		cfg := tiny("ckpt-local", seed)
		cfg.scale = 4
		out, err := runTraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 {
			t.Fatalf("traced run: %d of %d operations failed", out.Failed, out.Attempted)
		}
		if got, want := emitted(out), metricNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Fatalf("traced run emitted %v, declared %v", got, want)
		}
		return out
	}
	a, b, c := traced(7), traced(7), traced(8)
	for _, name := range exact {
		if a.values[name] != b.values[name] {
			t.Errorf("%s: %v and %v for one seed", name, a.values[name], b.values[name])
		}
	}
	if a.Attempted != b.Attempted || a.Attempted != c.Attempted {
		t.Errorf("traced op counts %d, %d, %d differ", a.Attempted, b.Attempted, c.Attempted)
	}
	if a.values["store.incremental.bytes_ratio"] == c.values["store.incremental.bytes_ratio"] {
		t.Error("another seed left the payloads unchanged")
	}
	if _, err := os.Stat(tracePath("ckpt-local")); err != nil {
		t.Errorf("traced run left no spans: %v", err)
	}
}

// A verdict that differs from the hand-written expectation is a failed
// op, not a slow one.
func TestWrongVerdictFails(t *testing.T) {
	is := progs.Get("IS")
	is.Expected["no_such_variable"] = core.WAR
	defer delete(is.Expected, "no_such_variable")
	out, err := runEndToEnd(tiny("trace-online", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rounds := out.Attempted / len(progs.All()); out.Failed != rounds || out.Correct {
		t.Fatalf("failed %d of %d, want exactly the IS op of each of %d rounds", out.Failed, out.Attempted, rounds)
	}
}

// A payload that does not hash to what was put is a failed op.
func TestCorruptPayloadFails(t *testing.T) {
	e, err := newEnv(tiny("ckpt-service", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.dir)
	e.reseed()
	w := &ckptService{}
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	victim := w.tenants[0]
	for i := range victim.objects {
		victim.objects[i].sum ^= 1
	}
	e.s = newSamples()
	roundOf(e, w.tenants[:1])
	if gets := e.s.attempted - len(e.s.ms["put"]); gets == 0 || e.s.failed != gets {
		t.Fatalf("%d failed of %d gets", e.s.failed, gets)
	}

	state := newCells(e.rng)
	m := state.machine()
	if !state.equal(m) {
		t.Fatal("a machine filled from the cells does not equal them")
	}
	m.WriteCell(varAddr(3, 17), state[3][18])
	if state.equal(m) {
		t.Fatal("a changed cell went unnoticed")
	}
}

// BENCHMARK.json is what -describe prints, and stays within the limits
// its readers set.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if printJSON(&buf, declaration(), "  ") != 0 {
		t.Fatal("printing the declaration failed")
	}
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Fatal("BENCHMARK.json differs from `run.sh -describe`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %v", d.Name, d.Unit, d.Better, d.Bound)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("the declaration breaks a count limit or lacks setup_s")
	}
}

func TestCompare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v", q1, q3)
	}
	lower := metricDef{"op_ms_geomean", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 80, 120, 90, 110}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, scaled(1.05), "ok"},
		{lower, steady, scaled(1.2), "worse"},
		{lower, steady, scaled(0.5), "ok"},
		{higher, steady, scaled(0.8), "worse"},
		{higher, steady, scaled(1.2), "ok"},
		{lower, steady, noisy, "unresolved"},
	} {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, median(c.a), median(c.b), got, c.want)
		}
	}

	write := func(name string, fp map[string]string, f float64) string {
		set := runSet{Fingerprint: fp}
		for _, v := range scaled(f) {
			set.Runs = append(set.Runs, setRun{Workload: "ckpt-local", Result: result{
				Metrics: map[string]metricValue{"op_ms_geomean": {v, "ms"}}}})
		}
		data, _ := json.Marshal(set)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := map[string]string{"cpu": "x", "nproc": "2", "git": "a"}
	var table bytes.Buffer
	worse, err := compareFiles(&table, write("a.json", here, 1), write("b.json", map[string]string{"cpu": "x", "nproc": "2", "git": "b"}, 1.3))
	if err != nil || !worse || !strings.Contains(table.String(), "worse") {
		t.Errorf("a 30%% slowdown across commits: worse=%v err=%v\n%s", worse, err, table.String())
	}
	if _, err := compareFiles(&table, write("a.json", here, 1), write("b.json", map[string]string{"cpu": "x", "nproc": "4", "git": "a"}, 1)); err == nil {
		t.Error("sets from different machines were compared")
	}
}
