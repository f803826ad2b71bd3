// BSP multi-rank demo (paper §VII "MPI programs"): an SPMD diffusion
// kernel runs on 4 simulated ranks with halo exchanges at global barriers.
// AutoCheck analyzes each rank locally — no inter-process analysis — and
// the per-rank variable sets are checkpointed synchronously at every
// barrier through the §VI-B fail-stop protocol. The run dies between two
// ranks' checkpoints of one barrier; the restart puts every rank back at
// the recovery line, the newest barrier every rank checkpointed, and
// must match the failure-free execution, or the demo exits non-zero.
//
//	go run ./examples/bsp_halo
package main

import (
	"fmt"
	"log"
	"os"

	"autocheck"
	"autocheck/internal/bsp"
	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/store"
	"autocheck/internal/validate"
)

const src = `
float u[10];
float tmp[10];
int main() {
  int rank = myrank();
  for (int i = 0; i < 10; i++) {
    u[i] = rank * 10 + i;
    tmp[i] = 0.0;
  }
  for (int step = 0; step < 6; step++) {
    for (int i = 1; i < 9; i++) {
      tmp[i] = (u[i - 1] + u[i + 1]) * 0.5;
    }
    for (int i = 1; i < 9; i++) {
      u[i] = u[i] * 0.5 + tmp[i] * 0.5;
    }
  }
  print(rank, u[2], u[7]);
  return 0;
}`

const ranks = 4

func main() {
	spec := core.LoopSpec{Function: "main", StartLine: 10, EndLine: 17}
	mod, err := autocheck.CompileProgram(src)
	if err != nil {
		log.Fatal(err)
	}
	// Ring halo exchange: each rank's right interior cell feeds the right
	// neighbor's left ghost, and vice versa.
	var exchanges []validate.Exchange
	for r := 0; r < ranks-1; r++ {
		exchanges = append(exchanges,
			validate.Exchange{SrcRank: r, SrcVar: "u", SrcOff: 8, DstRank: r + 1, DstVar: "u", DstOff: 0, Cells: 1},
			validate.Exchange{SrcRank: r + 1, SrcVar: "u", SrcOff: 1, DstRank: r, DstVar: "u", DstOff: 9, Cells: 1},
		)
	}
	loop, err := validate.FindWorld(mod, spec, ranks, exchanges)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-rank AutoCheck analysis (local work, §VII):")
	results, err := bsp.ParallelAnalyzeRanks(mod, ranks, spec, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	critical := make([][]core.CriticalVar, ranks)
	for r, res := range results {
		fmt.Printf("  rank %d: %v\n", r, res.CriticalNames())
		critical[r] = res.Critical
	}
	ref, err := validate.Record(loop, critical)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "bsp-halo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Iteration 3's checkpoints are Puts 9-12, one per rank. The process
	// dies right after the 10th commits: ranks 0 and 1 hold checkpoint 3,
	// ranks 2 and 3 do not, and the recovery line is iteration 2.
	faults := faultinject.NewRegistry(1)
	if err := faults.ArmSchedule("ckpt.committed=crash@nth=10"); err != nil {
		log.Fatal(err)
	}
	f := &validate.FailStop{Loop: loop, Critical: critical, Level: checkpoint.L1,
		Store: store.Config{Kind: store.KindFile, Dir: dir, Faults: faults}}
	fmt.Println("\nrunning with synchronous checkpoints; the process dies between two ranks' checkpoints of iteration 3...")
	d, err := f.Run(0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  died after %d acknowledged checkpoints: %v\n", d.Committed, d.Err)
	faults.DisarmAll()

	fmt.Println("global restart at the recovery line...")
	rec := f.Recover(nil)
	if rec.Err != nil {
		log.Fatal(rec.Err)
	}
	fmt.Printf("  every rank restored iteration %d\n", rec.Iter)
	for r, final := range rec.Final {
		fmt.Printf("  rank %d output: %s", r, final.Output)
	}
	if msg := rec.Check(ref); msg != "" {
		log.Fatalf("restarted world diverged from the failure-free run: %s", msg)
	}
	fmt.Println("\nrestarted world matches failure-free run: true")
}
