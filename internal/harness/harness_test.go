package harness

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autocheck"
	"autocheck/internal/analysis"
	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/progs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/validate"
)

func TestTable2(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table II has %d rows, want 14", len(rows))
	}
	for _, r := range rows {
		if len(r.Critical) == 0 {
			t.Errorf("%s: no critical variables", r.Name)
		}
		if r.TraceBytes <= 0 || r.GenTime <= 0 {
			t.Errorf("%s: missing trace metrics: %+v", r.Name, r)
		}
	}
	out := FormatTable2(rows)
	for _, want := range []string{"Himeno", "HACC", "p (WAR)", "it (Index)", "MCLR"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted Table II missing %q", want)
		}
	}
}

// TestTable2VerdictsAcrossScale: Table II's verdicts are not an
// artifact of the default problem size. At scales 4, 16 and 32 every
// port, analyzed online as it executes, reports exactly its expected
// critical variables and dependency types. Scale 2 is left out on
// purpose: there CG's print(x[1], x[2]) reads one cell past x, which is
// z[0], so the analysis rightly adds z.
func TestTable2VerdictsAcrossScale(t *testing.T) {
	for _, b := range progs.All() {
		for _, scale := range []int{4, 16, 32} {
			mod, err := autocheck.CompileProgram(b.Source(scale))
			if err != nil {
				t.Fatalf("%s@%d: %v", b.Name, scale, err)
			}
			spec, err := b.Spec(scale)
			if err != nil {
				t.Fatalf("%s@%d: %v", b.Name, scale, err)
			}
			opts := autocheck.DefaultOptions()
			opts.Module = mod
			res, _, err := autocheck.AnalyzeProgramOnline(mod, spec, opts)
			if err != nil {
				t.Fatalf("%s@%d: %v", b.Name, scale, err)
			}
			got := make(map[string]core.DependencyType, len(res.Critical))
			for _, c := range res.Critical {
				got[c.Name] = c.Type
			}
			if !reflect.DeepEqual(got, b.Expected) {
				t.Errorf("%s at scale %d: critical %v, want %v", b.Name, scale, got, b.Expected)
			}
		}
	}
}

// TestTracerFedMatchesTextTrace: the tracer-fed analysis Table IV,
// validation and chaos run reports the same critical list, field for
// field, as the paper's offline path over the encoded text trace.
func TestTracerFedMatchesTextTrace(t *testing.T) {
	for _, b := range progs.All() {
		p, err := Prepare(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		text, err := p.Analyze()
		if err != nil {
			t.Fatalf("%s: text trace: %v", b.Name, err)
		}
		_, fed, err := analyzed(b, 0)
		if err != nil {
			t.Fatalf("%s: tracer-fed: %v", b.Name, err)
		}
		if !reflect.DeepEqual(fed.Critical, text.Critical) {
			t.Errorf("%s: tracer-fed critical %+v, text trace %+v", b.Name, fed.Critical, text.Critical)
		}
	}
}

func TestTable3(t *testing.T) {
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table III has %d rows, want 14", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("%s: missing total: %+v", r.Name, r)
		}
		if r.Pre <= 0 || r.PreBinary <= 0 {
			t.Errorf("%s: missing pre-processing time: %+v", r.Name, r)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Pre (binary)") {
		t.Error("formatted Table III missing the pre-processing column")
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	rows, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table IV has %d rows, want 14", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: AutoCheck's variable checkpoints are far
		// smaller than full-process images, on every benchmark.
		if r.AutoCheckBytes <= 0 || r.BLCRBytes <= 0 {
			t.Errorf("%s: missing sizes: %+v", r.Name, r)
			continue
		}
		if r.AutoCheckBytes >= r.BLCRBytes {
			t.Errorf("%s: AutoCheck checkpoint (%d B) not smaller than BLCR-like image (%d B)",
				r.Name, r.AutoCheckBytes, r.BLCRBytes)
		}
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "Reduction") {
		t.Error("formatted Table IV missing reduction column")
	}
}

// TestTable4MatchesValidatedCheckpoint: Table IV's AutoCheck column is the
// size of a real checkpoint image — at the same scale, exactly what the
// §VI-B validation's L1 checkpoints of the same critical set measure.
func TestTable4MatchesValidatedCheckpoint(t *testing.T) {
	names := []string{"CG", "IS", "EP", "HACC"}
	rows, err := RunValidation(t.TempDir(), validate.Options{}, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		p, err := Prepare(progs.Get(row.Name), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		ac, _, err := MeasureStorage(p.Mod, res)
		if err != nil {
			t.Fatal(err)
		}
		if ac != row.CkptBytes {
			t.Errorf("%s: Table IV sizes the AutoCheck checkpoint at %d B, validation's checkpoints are %d B", row.Name, ac, row.CkptBytes)
		}
	}
	if len(rows) != len(names) {
		t.Errorf("validated %d ports, want %d", len(rows), len(names))
	}
}

func TestValidationSummary(t *testing.T) {
	rows, err := RunValidation(t.TempDir(), validate.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("validation has %d rows, want 14", len(rows))
	}
	for _, r := range rows {
		if !r.Sufficient {
			t.Errorf("%s: restart failed", r.Name)
		}
		if len(r.FalsePositives) != 0 {
			t.Errorf("%s: false positives %v", r.Name, r.FalsePositives)
		}
	}
	out := FormatValidation(rows)
	if !strings.Contains(out, "Restart OK") {
		t.Error("formatted validation missing header")
	}
}

// TestStorageRunIncrementalReduction pins the acceptance claim of the
// store subsystem: on IS (whose key_array changes only two elements per
// iteration), incremental checkpoints persist no more bytes than full
// critical-set images, with identical restart behavior.
func TestStorageRunIncrementalReduction(t *testing.T) {
	p, err := Prepare(progs.Get("IS"), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MeasureStorageRun(p.Mod, res, store.Config{Kind: store.KindMemory}, checkpoint.L1, true)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := MeasureStorageRun(p.Mod, res,
		store.Config{Kind: store.KindMemory, Incremental: true, Keyframe: 8}, checkpoint.L1, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Checkpoints == 0 || plain.Checkpoints != inc.Checkpoints {
		t.Fatalf("checkpoints: plain=%d inc=%d", plain.Checkpoints, inc.Checkpoints)
	}
	if inc.PersistedBytes > plain.PersistedBytes {
		t.Errorf("incremental persisted %d B > full critical-set %d B",
			inc.PersistedBytes, plain.PersistedBytes)
	}
	if plain.SnapshotBytes <= plain.LogicalBytes {
		t.Errorf("full snapshots (%d B) should dwarf critical-set images (%d B)",
			plain.SnapshotBytes, plain.LogicalBytes)
	}
	if plain.RestartIter != inc.RestartIter || inc.RestartIter != int64(inc.Checkpoints) {
		t.Errorf("restart iter: plain=%d inc=%d want %d", plain.RestartIter, inc.RestartIter, inc.Checkpoints)
	}
	if inc.Keyframes == 0 || inc.Deltas == 0 {
		t.Errorf("incremental accounting: keyframes=%d deltas=%d", inc.Keyframes, inc.Deltas)
	}
}

// The storage run must behave identically through the async and
// incremental write paths (same images, same restart point). Under -race
// the file+async+incr row, the ckpt-local stack, also checks that nothing
// writes a buffer the async writer still holds.
func TestStorageRunBackendEquivalence(t *testing.T) {
	p, err := Prepare(progs.Get("CG"), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MeasureStorageRun(p.Mod, res, store.Config{Kind: store.KindMemory}, checkpoint.L1, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, scfg := range map[string]store.Config{
		"file":            {Kind: store.KindFile, Dir: t.TempDir()},
		"memory-async":    {Kind: store.KindMemory, Async: true},
		"file+async+incr": {Kind: store.KindFile, Dir: t.TempDir(), Async: true, Incremental: true},
	} {
		got, err := MeasureStorageRun(p.Mod, res, scfg, checkpoint.L1, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Checkpoints != ref.Checkpoints || got.LogicalBytes != ref.LogicalBytes ||
			got.RestartIter != ref.RestartIter {
			t.Errorf("%s: run diverged: %+v vs %+v", name, got, ref)
		}
	}
}

func TestPrepareUnknownScaleUsesDefault(t *testing.T) {
	b := progs.Get("CG")
	p, err := Prepare(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) == 0 || len(p.Data) == 0 {
		t.Error("Prepare produced empty trace")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[int64]string{
		500:     "500 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
	if got := fmtDur(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(250 * time.Microsecond); got != "250µs" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(3 * time.Millisecond); got != "3.00ms" {
		t.Errorf("fmtDur = %q", got)
	}
}

// TestFormatEquivalenceAllBenchmarks pins the tentpole invariant on every
// Table II port: the critical-variable report is byte-identical for every
// engine adapter — in-memory text (the baseline) and binary, caller-owned
// records, files of both encodings scanned from disk, the single-sweep
// online engine, and the networked ingest service (one-shot, chunked
// sessions, and a chunked session that survives a mid-stream service kill
// and resumes on a replacement instance over the same store).
func TestFormatEquivalenceAllBenchmarks(t *testing.T) {
	isvc, its := newEquivalenceService(t)
	defer its.Close()
	defer isvc.Shutdown(context.Background())
	cli, err := analysis.NewClient(its.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := Prepare(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r := float64(len(p.BinData())) / float64(len(p.Data)); r > 0.7 {
				t.Errorf("binary trace is %.0f%% of text, want <= 70%%", 100*r)
			}
			want, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			wantReport := criticalReport(want)
			// The streaming rows scan temp files through the stream reader's
			// refilled window, the way the stream-binary workload does.
			streamFile := func(name string, data []byte) func() (*core.Result, error) {
				path := filepath.Join(t.TempDir(), name)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return func() (*core.Result, error) { return core.AnalyzeFile(path, p.Spec, p.opts()) }
			}
			paths := map[string]func() (*core.Result, error){
				"records":          func() (*core.Result, error) { return core.Analyze(p.Records, p.Spec, p.opts()) },
				"binary":           p.AnalyzeBinary,
				"text-streaming":   streamFile("trace.txt", p.Data),
				"binary-streaming": streamFile("trace.actb", p.BinData()),
				"online": func() (*core.Result, error) {
					_, res, err := analyzed(p.Bench, 0)
					return res, err
				},
				"service-oneshot": func() (*core.Result, error) {
					return cli.Analyze(p.BinData(), p.Spec)
				},
				"service-chunked": func() (*core.Result, error) {
					return cli.AnalyzeChunked(p.BinData(), p.Spec, len(p.BinData())/7+1)
				},
				"service-reconnect": func() (*core.Result, error) {
					return analyzeServiceReconnect(p)
				},
			}
			for label, run := range paths {
				got, err := run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if rep := criticalReport(got); rep != wantReport {
					t.Errorf("%s report differs:\nwant %s\ngot  %s", label, wantReport, rep)
				}
				if got.Stats.Records != want.Stats.Records ||
					got.Stats.RegionA != want.Stats.RegionA ||
					got.Stats.RegionB != want.Stats.RegionB ||
					got.Stats.RegionC != want.Stats.RegionC {
					t.Errorf("%s region stats differ: want %+v got %+v", label, want.Stats, got.Stats)
				}
			}
		})
	}
}

// TestAnalyzeBytesNeverMaterializes is the memory pin beside the
// equivalence suite: core.AnalyzeBytes on HACC's text and ACTB traces (at
// the benchmark's scale) decodes into a recycled batch, so the bytes it
// allocates are O(variables) — about 5 per record. Building a []Record
// costs about 415 per record; the bound fails long before that.
func TestAnalyzeBytesNeverMaterializes(t *testing.T) {
	p, err := Prepare(progs.Get("HACC"), 24)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"text": p.Data, "actb": p.BinData()} {
		run := func() {
			if _, err := p.AnalyzeData(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(p.Records))
		t.Logf("%s: %.1f B allocated per record (%d records)", name, perRecord, len(p.Records))
		if perRecord > 32 {
			t.Errorf("%s: AnalyzeBytes allocates %.1f B per record, want <= 32 — is a record slice materialized again?", name, perRecord)
		}
	}
}

// TestExtentAllBenchmarks pins the partition on every port and every kind
// of source — in-memory text and ACTB, caller-owned records and a text
// file streamed from disk: each reports the Stats an independent
// front-to-back count of the loop's records gives.
func TestExtentAllBenchmarks(t *testing.T) {
	for _, b := range progs.All() {
		p, err := Prepare(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		first, last := -1, -1
		for i, r := range p.Records {
			if r.Func == p.Spec.Function && r.Line >= p.Spec.StartLine && r.Line <= p.Spec.EndLine {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first <= 0 || last >= len(p.Records)-1 {
			t.Fatalf("%s: loop spans records %d-%d of %d, want all three regions occupied", b.Name, first, last, len(p.Records))
		}
		want := core.Stats{Records: len(p.Records), RegionA: first, RegionB: last - first + 1, RegionC: len(p.Records) - last - 1}
		path := filepath.Join(t.TempDir(), "trace.txt")
		if err := os.WriteFile(path, p.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		sources := map[string]func() (*core.Result, error){
			"text":    func() (*core.Result, error) { return p.AnalyzeData(p.Data) },
			"actb":    p.AnalyzeBinary,
			"records": func() (*core.Result, error) { return core.Analyze(p.Records, p.Spec, p.opts()) },
			"stream":  func() (*core.Result, error) { return core.AnalyzeFile(path, p.Spec, p.opts()) },
		}
		for name, run := range sources {
			res, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, name, err)
			}
			got := res.Stats
			got.TraceBytes = 0
			if got != want {
				t.Errorf("%s/%s: stats %+v, want %+v", b.Name, name, got, want)
			}
		}
	}
}

// TestAnalyzeManyEquivalenceAllBenchmarks extends the invariant to the
// parallel adapter: core.AnalyzeMany over all 14 ports — in both trace
// encodings, at several pool sizes — produces the same byte-identical
// reports as per-port serial analysis.
func TestAnalyzeManyEquivalenceAllBenchmarks(t *testing.T) {
	var preps []*Prepared
	var want []string
	for _, b := range progs.All() {
		p, err := Prepare(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, p)
		want = append(want, criticalReport(res))
	}
	encodings := map[string]func(p *Prepared) core.Input{
		"records": func(p *Prepared) core.Input { return p.Input() },
		"text": func(p *Prepared) core.Input {
			in := p.Input()
			in.Records, in.Data = nil, p.Data
			return in
		},
		"binary": func(p *Prepared) core.Input {
			in := p.Input()
			in.Records, in.Data = nil, p.BinData()
			return in
		},
	}
	for label, mk := range encodings {
		inputs := make([]core.Input, len(preps))
		for i, p := range preps {
			inputs[i] = mk(p)
		}
		for _, workers := range []int{1, 4, 8} {
			results, err := core.AnalyzeMany(inputs, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			for i, res := range results {
				if rep := criticalReport(res); rep != want[i] {
					t.Errorf("%s workers=%d %s report differs:\nwant %s\ngot  %s",
						label, workers, preps[i].Bench.Name, want[i], rep)
				}
			}
		}
	}
}

// TestRunTable2ParallelMatchesSerial: the parallel Table II pipeline
// produces the same rows as the serial one (timings aside).
func TestRunTable2ParallelMatchesSerial(t *testing.T) {
	serial, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTable2Parallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("parallel has %d rows, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		s.GenTime, p.GenTime = 0, 0
		if !reflect.DeepEqual(s, p) {
			t.Errorf("row %d differs:\nserial   %+v\nparallel %+v", i, s, p)
		}
	}
}

// newEquivalenceService mounts an ingest-enabled server over private
// in-memory backends for the service equivalence adapters.
func newEquivalenceService(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	svc := server.NewWithFactory(
		server.Config{Ingest: &analysis.Config{SweepEvery: -1}},
		func(string) (store.Backend, error) { return store.NewMemory(), nil })
	return svc, httptest.NewServer(svc.Handler())
}

// keepAliveBackend keeps a shared in-memory backend usable across a
// server "kill": Close is a no-op, so a replacement instance reopening
// the namespace sees everything the dead one acknowledged.
type keepAliveBackend struct{ store.Backend }

func (keepAliveBackend) Close() error { return nil }

// analyzeServiceReconnect streams a chunked session, kills the service
// after three chunks with no goodbye, brings up a replacement over the
// same store, and resumes the same session to completion — the adapter
// that proves the resume protocol preserves byte-identical results.
func analyzeServiceReconnect(p *Prepared) (*core.Result, error) {
	var mu sync.Mutex
	backs := map[string]store.Backend{}
	open := func(ns string) (store.Backend, error) {
		mu.Lock()
		defer mu.Unlock()
		b, ok := backs[ns]
		if !ok {
			b = store.NewMemory()
			backs[ns] = b
		}
		return keepAliveBackend{b}, nil
	}
	newSrv := func() (*server.Server, *httptest.Server) {
		s := server.NewWithFactory(server.Config{Ingest: &analysis.Config{SweepEvery: -1}}, open)
		return s, httptest.NewServer(s.Handler())
	}

	srvA, tsA := newSrv()
	defer srvA.Shutdown(context.Background())
	cli, err := analysis.NewClient(tsA.URL)
	if err != nil {
		return nil, err
	}
	cli.Backoff = 2 * time.Millisecond
	sess, err := cli.NewSession(p.Spec)
	if err != nil {
		return nil, err
	}
	bin := p.BinData()
	chunkBytes := len(bin)/6 + 1
	seq := 0
	for ; seq < 3 && seq*chunkBytes < len(bin); seq++ {
		lo := seq * chunkBytes
		hi := min(lo+chunkBytes, len(bin))
		if err := sess.SendChunk(seq, bin[lo:hi]); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", seq, err)
		}
	}
	tsA.CloseClientConnections()
	tsA.Close()

	srvB, tsB := newSrv()
	defer tsB.Close()
	defer srvB.Shutdown(context.Background())
	if err := cli.SetAddr(tsB.URL); err != nil {
		return nil, err
	}
	// The status probe triggers service-side recovery and reports the
	// acknowledged resume point.
	st, err := sess.Status()
	if err != nil {
		return nil, fmt.Errorf("post-kill status: %w", err)
	}
	for seq = st.NextSeq; seq*chunkBytes < len(bin); seq++ {
		lo := seq * chunkBytes
		hi := min(lo+chunkBytes, len(bin))
		if err := sess.SendChunk(seq, bin[lo:hi]); err != nil {
			return nil, fmt.Errorf("resumed chunk %d: %w", seq, err)
		}
	}
	return sess.Finish()
}

// criticalReport renders the parts of a result Table II reports, in a
// stable byte form.
func criticalReport(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.Critical {
		fmt.Fprintf(&sb, "%s/%s@%x:%d (%s); ", c.Fn, c.Name, c.Base, c.SizeBytes, c.Type)
	}
	for _, v := range res.MLI {
		fmt.Fprintf(&sb, "mli %s/%s@%x:%d; ", v.Fn, v.Name, v.Base, v.SizeBytes)
	}
	return sb.String()
}
