package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outcome is a run's result plus the counts the tests compare.
type outcome struct {
	result
	values      map[string]float64
	records     int64
	referenceMS float64 // the run's quiet reference pass, which its timings are scaled by
}

func findWorkload(name string) (func() workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newEnv gives the run a scratch directory under out/, inside the
// checkout; the caller removes it.
func newEnv(cfg config) (*env, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("out", "work-")
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	return &env{cfg: cfg, dir: dir, s: newSamples(), ref: ref}, nil
}

// setUp builds the workload cfg.setups times over, each time with one
// round to warm up, tearing each but the last down again, and returns
// the last with the quickest set-up's time.
func setUp(e *env, mk func() workload) (workload, float64, error) {
	var w workload
	var took []float64
	for i := 0; i < e.cfg.setups; i++ {
		if w != nil {
			if err := w.teardown(); err != nil {
				return nil, 0, err
			}
		}
		e.reseed()
		w = mk()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), w.teardown())
		}
		timedRound(e, w)
		took = append(took, time.Since(t0).Seconds())
		runtime.GC() // what set-up left behind is not the next phase's to collect
	}
	return w, quiet(took), nil
}

// timedRound runs one round, recording into e.s, with what it cost.
func timedRound(e *env, w workload) {
	cpu0, t0 := cpuSeconds(), time.Now()
	w.round(e)
	e.s.wall = append(e.s.wall, time.Since(t0).Seconds())
	e.s.cpu = append(e.s.cpu, cpuSeconds()-cpu0)
}

// runEndToEnd is the untraced run: set-up, the measured loop, and the
// end-to-end metrics.
func runEndToEnd(cfg config) (*outcome, error) {
	mk, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	w, setupS, err := setUp(e, mk)
	if err != nil {
		return nil, err
	}
	// The warm-up rounds stay among the samples: every timing is reported
	// by its quiet value, which a cold round never is, and the longer a run
	// watches the machine the likelier it sees it quiet.
	s := e.s
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for r := 0; e.more(r, deadline); r++ {
		timedRound(e, w)
	}
	if err := w.teardown(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	geo, slowest, _ := latencies(s)
	perRound := float64(s.attempted-s.failed) / float64(len(s.wall))
	speed := e.speed()
	values := map[string]float64{
		"setup_s":       setupS * speed,
		"op_ms_geomean": geo * speed,
		"op_ms_max":     slowest * speed,
		"ops_per_s":     perRound / (quiet(s.wall) * speed),
		"cpu_ms_per_op": quiet(s.cpu) * speed * 1000 / perRound,
		"peak_rss_mb":   peakRSSMB(),
	}
	return newOutcome(e, endToEnd, values, s.attempted, s.failed, s.records)
}

// quiet is the statistic every timing is reported by: the 10th
// percentile, the minimum of fewer than eleven samples. The machine's
// other tenants slow the same work by up to 1.7 times for seconds at a time
// and never speed it up, so the fast end of a run's samples is what the
// program costs and repeats from run to run; the median is whichever
// state the machine was in for most of the run and does not. README.md
// has the measurements.
func quiet(xs []float64) float64 { return percentile(xs, 10) }

func newOutcome(e *env, defs []metricDef, values map[string]float64, attempted, failed int, records int64) (*outcome, error) {
	metrics, missing := fill(defs, values)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return &outcome{
		result:  result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		values:  values,
		records: records,

		referenceMS: quiet(e.refMS),
	}, nil
}

// latencies condenses the per-class samples: the geometric mean of the
// classes' quiet latencies (each port, or each operation type, counts
// once however long it runs), the slowest class's, and the tail as the
// 99th percentile of every sample divided by its own class's median (the
// 90th when there are under a thousand samples, so that at least ten
// lie beyond it once there are a hundred).
func latencies(s *samples) (geo, slowest, tail float64) {
	var typical, ratios []float64
	for _, ms := range s.ms {
		q, m := quiet(ms), median(ms)
		typical = append(typical, q)
		slowest = max(slowest, q)
		for _, x := range ms {
			ratios = append(ratios, x/m)
		}
	}
	p := 99.0
	if len(ratios) < 1000 {
		p = 90
	}
	return geomean(typical), slowest, percentile(ratios, p)
}

// tracePath is where a traced run of the workload leaves its spans.
func tracePath(workload string) string {
	return filepath.Join("out", "trace-"+workload+".json")
}
