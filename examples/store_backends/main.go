// Checkpoint storage engine demo: analyze the IS port (whose key_array
// changes only two elements per iteration), then checkpoint its critical
// variables at every main-loop boundary through each backend and
// write-path decorator of internal/store, comparing bytes persisted,
// wall-clock cost, and restart correctness. The full-snapshot column is
// the BLCR-like baseline of Table IV; the incremental rows show the
// delta/keyframe write path persisting less than full critical-set
// images.
//
//	go run ./examples/store_backends
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"autocheck/internal/checkpoint"
	"autocheck/internal/harness"
	"autocheck/internal/progs"
	"autocheck/internal/store"
)

func main() {
	bench := progs.Get("IS")
	p, err := harness.Prepare(bench, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("AutoCheck-detected variables for IS:")
	for _, c := range res.Critical {
		fmt.Printf("  %-22s %-7s %6d bytes\n", c.Name, c.Type, c.SizeBytes)
	}

	dir, err := os.MkdirTemp("", "autocheck-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	type row struct {
		name  string
		cfg   store.Config
		level checkpoint.Level
	}
	rows := []row{
		{"memory", store.Config{Kind: store.KindMemory}, checkpoint.L1},
		{"file", store.Config{Kind: store.KindFile}, checkpoint.L1},
		{"file L2 (partner copy)", store.Config{Kind: store.KindFile}, checkpoint.L2},
		{"file + async", store.Config{Kind: store.KindFile, Async: true}, checkpoint.L1},
		{"file + incremental", store.Config{Kind: store.KindFile, Incremental: true, Keyframe: 8}, checkpoint.L1},
		{"file + async + incr", store.Config{Kind: store.KindFile, Async: true, Incremental: true, Keyframe: 8}, checkpoint.L1},
	}

	fmt.Println("\ncheckpointing every main-loop iteration through each backend:")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Backend\tCkpts\tImage bytes\tPersisted\tSkipped vars\tTime\tRestart iter")
	var snapshotBytes int64
	for i, r := range rows {
		cfg := r.cfg
		if cfg.Kind != store.KindMemory {
			cfg.Dir = filepath.Join(dir, fmt.Sprintf("b%d", i))
		}
		t0 := time.Now()
		run, err := harness.MeasureStorageRun(p.Mod, res, cfg, r.level, i == 0)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		if i == 0 {
			snapshotBytes = run.SnapshotBytes
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%d\n",
			r.name, run.Checkpoints, run.LogicalBytes, run.PersistedBytes,
			run.SectionsSkipped, time.Since(t0).Round(10*time.Microsecond), run.RestartIter)
	}
	w.Flush()
	fmt.Printf("\nBLCR-like full snapshots at the same boundaries: %d bytes\n", snapshotBytes)
	fmt.Println("(every backend restores the same final iteration; the incremental")
	fmt.Println("rows persist fewer bytes than full critical-set images, and both")
	fmt.Println("stay far below the full-snapshot baseline)")
	fmt.Println("\nsame selection, end to end: autocheck validate -level L2 -async -incremental")
}
