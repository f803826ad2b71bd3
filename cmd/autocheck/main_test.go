package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autocheck/internal/interp"
	"autocheck/internal/progs"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// runCLI runs args as main does and returns the exit code and what the
// command wrote to stdout and stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var files [2]*os.File
	for i := range files {
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	saved := [2]*os.File{os.Stdout, os.Stderr}
	os.Stdout, os.Stderr = files[0], files[1]
	defer func() { os.Stdout, os.Stderr = saved[0], saved[1] }()
	code = run(args)
	var out [2]string
	for i, f := range files {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return code, out[0], out[1]
}

// wantFlags is every command's flags and defaults as they stood before the
// command table replaced the per-command FlagSets: no flag may be lost,
// renamed or re-defaulted, except -shard-workers, which went with the
// sharded backend, and analyze -stream, which went when every analysis
// began streaming its trace.
var wantFlags = map[string]map[string]string{
	"analyze": {"addr": "", "chunk-bytes": "0", "chunk-delay": "0s", "ddg": "false", "end": "0", "file": "",
		"func": "main", "ns": "default", "online": "false", "start": "0", "trace": ""},
	"explain": {"end": "0", "file": "", "func": "main", "start": "0", "trace": ""},
	"doctor": {"addr": "", "addrs": "", "async": "false", "cache-mb": "0", "dir": "", "incremental": "false",
		"keyframe": "8", "ns": "doctor", "read-quorum": "0", "store": "file", "write-quorum": "0"},
	"trace":   {"file": "", "o": "", "trace-format": "text"},
	"convert": {"in": "", "out": "", "to": ""},
	"table2":  {"workers": "0"},
	"table3":  {},
	"table4":  {},
	"validate": {"addr": "", "addrs": "", "async": "false", "benchmark": "", "cache-mb": "0", "hedge-after": "0s",
		"incremental": "false", "keyframe": "8", "level": "L1", "read-quorum": "0",
		"store": "file", "write-quorum": "0"},
	"chaos": {"benchmark": "", "list": "false", "quick": "false", "schedule": "", "seed": "1", "stack": "", "v": "false"},
	"serve": {"addr": "127.0.0.1:9473", "cluster": "1", "dir": "", "ingest": "false", "ingest-inflight": "16",
		"ingest-sessions": "8", "ingest-ttl": "2m0s", "max-inflight": "64", "queue-depth": "0",
		"store": "file", "sync": "false", "tenant-burst": "0", "tenant-rate": "0", "tenant-slots": "0"},
	"loadgen": {"addr": "127.0.0.1:9473", "clients": "64", "ops": "200", "put-mix": "0.7", "quick": "false",
		"schedule": "", "seed": "1", "strict": "false", "tenants": "4", "think": "0s", "value-bytes": "4096"},
	"list": {},
}

func TestCommandTable(t *testing.T) {
	if len(commands) != len(wantFlags) {
		t.Errorf("%d commands, want %d", len(commands), len(wantFlags))
	}
	for i := range commands {
		c := &commands[i]
		fs, _ := c.flags() // a storage flag registered twice panics here
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h = %v, want flag.ErrHelp", c.name, err)
		}
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if want, ok := wantFlags[c.name]; !ok || !maps.Equal(got, want) {
			t.Errorf("%s flags = %v, want %v", c.name, got, want)
		}
	}

	var help1 bytes.Buffer
	help(&help1)
	for _, c := range commands {
		if n := strings.Count(help1.String(), "\n  "+c.name+" "); n != 1 {
			t.Errorf("help lists %s %d times, want once", c.name, n)
		}
	}
	if code, _, stderr := runCLI(t, "no-such-command"); code != 2 || !strings.Contains(stderr, `unknown command "no-such-command"`) {
		t.Errorf("unknown command: exit %d, stderr %q; want exit 2 naming it", code, stderr)
	}
	if code, _, _ := runCLI(t, "help"); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
}

// fig4 is the paper's Fig. 4 example; the main computation loop spans
// lines 17-25.
const fig4 = `
void foo(int *p, int *q) {
  for (int i = 0; i < 10; ++i) {
    q[i] = p[i] * 2;
  }
}
int main() {
  int a[10];
  int b[10];
  int sum = 0;
  int s = 0;
  int r = 1;
  for (int i = 0; i < 10; ++i) {
    a[i] = 0;
    b[i] = 0;
  }
  for (int it = 0; it < 10; ++it) {
    int m;
    s = it + 1;
    a[it] = s * r;
    foo(a, b);
    r++;
    m = a[it] + b[it];
    sum = m;
  }
  print(sum);
  return 0;
}
`

// TestExplainListingMatchesAnalyze runs Fig. 4 from source and from a
// binary trace: explain's classification listing must be analyze's output
// without its timing line.
func TestExplainListingMatchesAnalyze(t *testing.T) {
	dir := t.TempDir()
	src, actb := filepath.Join(dir, "fig4.c"), filepath.Join(dir, "fig4.actb")
	if err := os.WriteFile(src, []byte(fig4), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, "trace", "-file", src, "-o", actb, "-trace-format", "binary"); code != 0 {
		t.Fatalf("trace: exit %d: %s", code, stderr)
	}
	for _, source := range [][]string{{"-file", src}, {"-trace", actb}} {
		loop := append(source, "-start", "17", "-end", "25")
		code, analyzed, stderr := runCLI(t, append([]string{"analyze"}, loop...)...)
		if code != 0 {
			t.Fatalf("analyze %v: exit %d: %s", source, code, stderr)
		}
		var want strings.Builder
		for _, line := range strings.SplitAfter(analyzed, "\n") {
			if !strings.HasPrefix(line, "timing:") {
				want.WriteString(line)
			}
		}
		code, explained, stderr := runCLI(t, append([]string{"explain"}, loop...)...)
		if code != 0 {
			t.Fatalf("explain %v: exit %d: %s", source, code, stderr)
		}
		listing, trail, ok := strings.Cut(explained, "\nprovenance:\n")
		if !ok || !strings.Contains(trail, "rule: ") {
			t.Fatalf("explain %v printed no provenance trail:\n%s", source, explained)
		}
		if listing != want.String() {
			t.Errorf("explain %v listing:\n%s\nwant analyze's:\n%s", source, listing, want.String())
		}
		if !strings.Contains(listing, "critical variables to checkpoint:\n  ") {
			t.Errorf("analyze %v found no critical variables:\n%s", source, listing)
		}
	}
}

// TestOutOfRangeQuorumRejected: a quorum the replicated tier refuses is
// refused with its message before validate prints its banner or doctor
// probes a node.
func TestOutOfRangeQuorumRejected(t *testing.T) {
	addrs := strings.Join([]string{unboundAddr(t), unboundAddr(t), unboundAddr(t)}, ",")
	for _, args := range [][]string{
		{"validate", "-store", "replicated", "-addrs", addrs, "-write-quorum", "-1", "-benchmark", "IS"},
		{"doctor", "-addrs", addrs, "-write-quorum", "-1"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "write quorum -1 out of range [1,3]") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1, no output, the store's range error", args[0], code, stdout, stderr)
		}
	}
	if code, stdout, stderr := runCLI(t, "doctor", "-addrs", addrs, "-read-quorum", "4"); code != 1 || stdout != "" ||
		!strings.Contains(stderr, "read quorum 4 out of range [1,3]") {
		t.Errorf("doctor -read-quorum 4: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	// In range, the banner reports what the tier chose: 0 means majority.
	w, r, err := quorums(store.Config{Addrs: strings.Split(addrs, ","), ReadQuorum: 3})
	if err != nil || w != 2 || r != 3 {
		t.Errorf("quorums(3 replicas, W=0, R=3) = %d, %d, %v; want 2, 3, nil", w, r, err)
	}
}

// TestConvertStreamsTheEncoding: convert writes, in each direction, the
// bytes Encode gives for the records ParseBytes reads off its input — on
// a port's trace — and counts those records; it refuses to write over its
// input.
func TestConvertStreamsTheEncoding(t *testing.T) {
	mod, err := interp.Compile(progs.Get("CG").Source(2))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := interp.TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	text := filepath.Join(dir, "cg.trace")
	if err := os.WriteFile(text, trace.EncodeAll(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "cg.actb")
	back := filepath.Join(dir, "cg.back.trace")
	for _, c := range []struct {
		in, out string
		target  trace.Format
	}{{text, bin, trace.FormatBinary}, {bin, back, trace.FormatText}} {
		code, stdout, stderr := runCLI(t, "convert", "-in", c.in, "-out", c.out)
		if code != 0 {
			t.Fatalf("convert %s: exit %d, %s", c.in, code, stderr)
		}
		data, err := os.ReadFile(c.in)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := trace.ParseBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(c.out)
		if err != nil {
			t.Fatal(err)
		}
		if want := trace.Encode(parsed, c.target); !bytes.Equal(got, want) {
			t.Errorf("convert %s -> %v: %d bytes differ from Encode(ParseBytes(in))'s %d", c.in, c.target, len(got), len(want))
		}
		if want := fmt.Sprintf(": %d records,", len(parsed)); !strings.Contains(stdout, want) {
			t.Errorf("convert %s summary %q lacks %q", c.in, stdout, want)
		}
	}
	if code, _, stderr := runCLI(t, "convert", "-in", text, "-out", text); code == 0 || !strings.Contains(stderr, "same file") {
		t.Errorf("convert over its own input: exit %d, stderr %q; want a refusal", code, stderr)
	}
	if data, err := os.ReadFile(text); err != nil || !bytes.Equal(data, trace.EncodeAll(recs)) {
		t.Errorf("convert over its own input changed it (%v)", err)
	}
}
