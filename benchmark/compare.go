package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// fingerprint describes where a run set was measured. Two sets compare
// only when everything but the commit and the seed agrees.
func fingerprint() map[string]string {
	fp := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"git":        "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp["git"] = strings.TrimSpace(string(out))
	}
	return fp
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict compares the medians of a metric in two sets. A metric whose
// run-to-run spread (the distance between the quartiles, as a share of
// the median) in either set is wider than its bound cannot show a
// change of that size, so it is unresolved rather than ok.
func verdict(d metricDef, a, b []float64) (ma, mb float64, v string) {
	ma, mb = median(a), median(b)
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return ma, mb, v
}

func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any of them got worse from set A to set B.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	for k, v := range a.Fingerprint {
		if k != "git" && b.Fingerprint[k] != v {
			return false, fmt.Errorf("the sets were measured in different environments: %s is %q in %s and %q in %s",
				k, v, pathA, b.Fingerprint[k], pathB)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tspread A\tspread B\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb, v := verdict(d, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.3f\t%.3f\t%.2f\t%s\n",
				wl.name, d.Name, d.Unit, ma, mb, spread(va), spread(vb), d.Bound, v)
		}
	}
	return anyWorse, tw.Flush()
}
