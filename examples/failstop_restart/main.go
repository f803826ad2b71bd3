// Fail-stop checkpoint/restart demo (paper §VI-B): analyze the HACC port,
// checkpoint the detected variables with the FTI-like library, inject a
// fail-stop failure mid-loop, restart from the latest checkpoint, and
// verify the restarted execution matches a failure-free run. Also compares
// the checkpoint size against a BLCR-like full-process snapshot
// (Table IV's storage argument).
//
//	go run ./examples/failstop_restart
package main

import (
	"fmt"
	"log"
	"os"

	"autocheck"
	"autocheck/internal/progs"
	"autocheck/internal/validate"
)

func main() {
	bench := progs.Get("HACC")
	src := bench.Source(0)
	spec, err := bench.Spec(0)
	if err != nil {
		log.Fatal(err)
	}
	mod, err := autocheck.CompileProgram(src)
	if err != nil {
		log.Fatal(err)
	}
	recs, _, err := autocheck.TraceProgram(mod)
	if err != nil {
		log.Fatal(err)
	}
	opts := autocheck.DefaultOptions()
	opts.Module = mod
	res, err := autocheck.Analyze(recs, spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("AutoCheck-detected variables for HACC:")
	for _, c := range res.Critical {
		fmt.Printf("  %-10s %-7s %6d bytes\n", c.Name, c.Type, c.SizeBytes)
	}

	dir, err := os.MkdirTemp("", "autocheck-failstop-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	v, err := validate.New(mod, res, dir, validate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := v.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmain loop iterations:        %d\n", rep.Iterations)
	fmt.Printf("fail-stop injected after:    iterations %v\n", rep.FailPoints)
	fmt.Printf("restart matches reference:   %v\n", rep.Sufficient)
	fmt.Printf("checkpoints written:         %d\n", rep.Checkpoints)
	fmt.Printf("AutoCheck checkpoint size:   %d bytes\n", rep.CheckpointBytes)
	fmt.Printf("BLCR-like full snapshot:     %d bytes (%.1fx larger)\n",
		rep.FullSnapshotBytes, float64(rep.FullSnapshotBytes)/float64(rep.CheckpointBytes))

	fmt.Println("\nfalse-positive check (drop one variable at a time):")
	for _, c := range res.Critical {
		status := "NECESSARY (restart broke without it)"
		if !rep.Necessary[c.Name] {
			status = "unnecessary?!"
		}
		fmt.Printf("  without %-10s -> %s\n", c.Name, status)
	}
}
