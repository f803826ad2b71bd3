package main

import (
	"flag"
	"fmt"

	"autocheck/internal/harness"
)

const loadgenNotes = `Concurrent simulated clients spread across tenant namespaces drive seeded
checkpoint Put/Get mixes (interactive vs restart admission classes)
against a running serve; prints per-tenant throughput and latency
percentiles.`

func cmdLoadgen(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:9473", "checkpoint service address to load")
	tenants := fs.Int("tenants", 4, "tenant namespaces (tenant-NN); clients are assigned round-robin")
	clients := fs.Int("clients", 64, "concurrent simulated clients")
	ops := fs.Int("ops", 200, "operations per client")
	seed := fs.Int64("seed", 1, "deterministic root for every client's key, mix, and fault stream")
	putMix := fs.Float64("put-mix", 0.7,
		"fraction of operations that are checkpoint Puts (interactive class); the rest are restart-path Gets")
	valueBytes := fs.Int("value-bytes", 4096, "checkpoint payload bytes per Put")
	think := fs.Duration("think", 0, "mean exponential pause between one client's operations (0 = closed loop)")
	schedule := fs.String("schedule", "",
		"faultinject schedule armed per client, seeded seed+client (e.g. store.remote.do=error@p=0.05)")
	quick := fs.Bool("quick", false, "CI smoke subset: caps clients at 16 and ops per client at 25")
	strict := fs.Bool("strict", false,
		"exit nonzero unless every tenant recorded throughput and no operation failed")
	return func() error {
		cfg := harness.LoadgenConfig{
			Addr: *addr, Tenants: *tenants, Clients: *clients, Ops: *ops,
			Seed: *seed, PutMix: *putMix, ValueBytes: *valueBytes,
			Think: *think, Schedule: *schedule, FailFast: true,
		}
		if *quick {
			cfg.Clients, cfg.Ops = min(cfg.Clients, 16), min(cfg.Ops, 25)
		}
		fmt.Printf("loadgen: %d clients x %d ops across %d tenants against %s (seed %d)\n",
			cfg.Clients, cfg.Ops, cfg.Tenants, *addr, *seed)
		run, err := harness.RunLoadgen(cfg)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatLoadgen(run))
		if *strict {
			for _, tl := range run.Tenants {
				if tl.OpsPerSec <= 0 {
					return &exitError{code: 1, err: fmt.Errorf("loadgen: tenant %s recorded zero throughput", tl.Tenant)}
				}
			}
			if run.Failures > 0 {
				return &exitError{code: 1, err: fmt.Errorf("loadgen: %d/%d operations failed", run.Failures, run.Ops)}
			}
		}
		return nil
	}
}
