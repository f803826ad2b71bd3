// Chaos validation: the §VI-B fail-stop protocol generalized from
// "kill the process at two hand-picked iterations" to "enumerate every
// crash window in the storage stack". A sweep runs benchmark × store
// stack × failpoint schedule; each run checkpoints the AutoCheck
// critical variables through a fault-armed backend chain, lets the
// schedule kill, tear, delay or shed wherever it was armed, then
// restarts from the surviving checkpoints and verifies — byte for byte
// — that the recovered state is one the failure-free execution actually
// passed through and that the re-run converges to the failure-free
// final state. A run may also end in a clean typed error (everything
// destroyed, or the recovery path itself under injected fire); what it
// may never do is restart from fabricated state. Every run derives its
// fault randomness from the sweep seed, so a failure is replayed
// exactly from the (seed, benchmark, stack, schedule) triple the report
// prints. Each run is one validate.FailStop: the protocol §VI-B
// validation and the storage runs use too.
package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"time"

	"autocheck/internal/checkpoint"
	"autocheck/internal/faultinject"
	"autocheck/internal/progs"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/validate"
)

// ChaosOptions parameterizes a sweep. Zero values select the defaults.
type ChaosOptions struct {
	Seed       int64    // fault randomness root (0 means 1)
	Benchmarks []string // ports to sweep (default: IS, EP, CG; Quick: IS)
	Stacks     []string // store stacks (default: ChaosStacks(); Quick: a 3-stack subset)
	Schedules  []string // schedule names (default: every applicable schedule)
	Quick      bool     // CI smoke subset
}

// ChaosSchedule is one named failpoint schedule: what is armed while
// the workload checkpoints (Write) and what is armed while it recovers
// (Restart). Needs restricts the schedule to stacks where its sites
// exist; Retain arms a retention policy so prune-path sites get
// traffic.
type ChaosSchedule struct {
	Name    string
	Write   string
	Restart string
	Needs   string // "": any stack; "async", "incr", "remote": feature required
	Retain  int
}

// ChaosSchedules returns the sweep's schedule catalog. Site hit counts
// are per physical operation, so one logical checkpoint advances
// "store.put" once on a plain stack and two or three times under L2/L3
// replication — the schedules below use small ordinals so they fire
// within any benchmark's handful of iterations.
func ChaosSchedules(quick bool) []ChaosSchedule {
	base := []ChaosSchedule{
		// A Put that fails mid-run: the process dies with the previous
		// checkpoints durable.
		{Name: "put-error", Write: "store.put=error@nth=3"},
		// A write torn on the medium: restart must reject it by CRC (or
		// manifest verification) and fall back.
		{Name: "torn-write", Write: "store.put=torn@nth=4"},
		// Process death after the backend committed but before the writer
		// acknowledged — the durable-but-unacknowledged checkpoint window.
		{Name: "crash-committed", Write: "ckpt.committed=crash@nth=3"},
	}
	if quick {
		return append(base,
			ChaosSchedule{
				Name: "shed-storm", Needs: "remote",
				Write:   "server.request=error@p=0.25",
				Restart: "server.request=error@p=0.25",
			},
			// One node of the cluster dies mid-write and stays dead: the
			// surviving quorum keeps acking, the scrub pass re-replicates,
			// and restart reads route around the corpse.
			ChaosSchedule{Name: "replica-kill-mid-put",
				Write: "store.replicated.r1.put=crash@nth=2", Needs: "replicated"})
	}
	return append(base,
		// Process death inside the backend's own commit path.
		ChaosSchedule{Name: "crash-put", Write: "store.put=crash@nth=2"},
		// Death before anything of the checkpoint reaches the backend.
		ChaosSchedule{Name: "crash-before-put", Write: "ckpt.put=crash@nth=2"},
		// A transient read failure of the newest checkpoint during
		// recovery: restart must fall back (or retry) — never fabricate.
		ChaosSchedule{Name: "get-blip-restart", Restart: "store.get=error@nth=1@oneshot"},
		// Retention pruning whose delete fails mid-churn.
		ChaosSchedule{Name: "prune-delete-error", Write: "store.delete=error@nth=1", Retain: 2},
		// The dedicated writer goroutine dies with a buffered checkpoint.
		ChaosSchedule{Name: "writer-crash", Write: "async.writer=crash@nth=2", Needs: "async"},
		// Network blips every few requests: the client's retry loop must
		// absorb them without the workload noticing.
		ChaosSchedule{Name: "flaky-network", Write: "remote.do=error@every=3", Needs: "remote"},
		// A 503 storm across both phases, Retry-After hints included.
		ChaosSchedule{Name: "shed-storm", Needs: "remote",
			Write:   "server.request=error@p=0.25",
			Restart: "server.request=error@p=0.25"},
		// A slow service: no failures, just latency on every few requests.
		ChaosSchedule{Name: "slow-server", Write: "server.request=delay@every=3@delay=1ms", Needs: "remote"},
		// One node of the cluster dies mid-write and stays dead (see the
		// quick catalog).
		ChaosSchedule{Name: "replica-kill-mid-put",
			Write: "store.replicated.r1.put=crash@nth=2", Needs: "replicated"},
		// A replica partitioned away for the whole fault phase: every
		// write and read against it fails from the first hit (@from), the
		// quorum absorbs it, and the between-phase scrub re-replicates
		// what the node missed once the partition heals.
		ChaosSchedule{Name: "replica-partition",
			Write: "store.replicated.r2.put=error@from=1;store.replicated.r2.get=error@from=1",
			Needs: "replicated"},
		// A slow (not dead) replica during recovery: hedged reads bound
		// the tail and the restart must still verify byte-identically.
		ChaosSchedule{Name: "replica-slow-hedge",
			Restart: "store.replicated.r0.get=delay@every=1@delay=2ms", Needs: "replicated"},
		// The scrubber itself dies mid-sweep; the half-finished repair
		// pass must leave nothing restart can trip over.
		ChaosSchedule{Name: "replica-kill-scrub",
			Restart: "store.replicated.scrub=crash@nth=2", Needs: "replicated"},
	)
}

// ChaosStacks returns every store stack the full sweep covers.
func ChaosStacks() []string {
	return []string{
		"memory", "file", "file+l2",
		"file+async", "file+incr", "file+async+incr",
		"remote", "remote+cached",
		"replicated", "replicated+cached",
	}
}

func chaosQuickStacks() []string {
	return []string{"file", "file+async+incr", "remote+cached", "replicated"}
}

// chaosStackConfig translates a stack name ("file+async+incr",
// "remote+cached", "replicated", ...) into a store configuration rooted
// at dir, the checkpoint level, and how many live checkpoint services
// the stack needs (0 for the local kinds, 1 for remote, a 3-node
// cluster for replicated).
func chaosStackConfig(stack, dir string) (store.Config, checkpoint.Level, int, error) {
	scfg := store.Config{Dir: dir}
	level := checkpoint.L1
	services := 0
	for i, part := range strings.Split(stack, "+") {
		if i == 0 {
			kind, err := store.ParseKind(part)
			if err != nil {
				return scfg, level, 0, fmt.Errorf("harness: stack %q: %w", stack, err)
			}
			scfg.Kind = kind
			switch kind {
			case store.KindRemote:
				services = 1
			case store.KindReplicated:
				services = 3
				// Majority quorums (2/2 of 3) and an aggressive hedge so
				// the slow-replica schedules actually hedge within a run.
				scfg.HedgeAfter = time.Millisecond
			}
			continue
		}
		switch part {
		case "async":
			scfg.Async = true
		case "incr":
			scfg.Incremental = true
			scfg.Keyframe = 4
		case "cached":
			scfg.CacheMB = 8
		case "l2":
			level = checkpoint.L2
		default:
			return scfg, level, 0, fmt.Errorf("harness: stack %q: unknown layer %q", stack, part)
		}
	}
	if scfg.Kind == store.KindMemory && (scfg.Async || scfg.Incremental) {
		// The memory stack restarts in process through the Context that
		// checkpointed (see validate.FailStop), so the async queue and the
		// incremental basis would outlive the "death" and the stack would
		// pass without testing them.
		return scfg, level, 0, fmt.Errorf("harness: stack %q: async and incr need a durable base (file, remote, replicated)", stack)
	}
	return scfg, level, services, nil
}

func stackSatisfies(stack, needs string) bool {
	switch needs {
	case "":
		return true
	case "remote":
		return strings.HasPrefix(stack, "remote")
	default:
		return strings.Contains(stack, needs)
	}
}

// ChaosRun is one swept combination's outcome.
type ChaosRun struct {
	Bench    string
	Stack    string
	Schedule string
	Seed     int64 // this run's derived fault seed
	Events   int   // failpoints fired across both phases
	EventLog []string
	// Outcome: "recovered" (restart landed on a verified checkpoint and
	// the re-run matched the reference), "absorbed" (the schedule fired
	// but the stack rode it out and still recovered), "clean-error"
	// (recovery refused with a typed error — nothing valid survived, or
	// the recovery path was itself under fire), "no-fire" (the schedule
	// never triggered on this stack; recovery verified anyway).
	Outcome string
	OK      bool
	Detail  string
}

// Replay renders the CLI invocation that reruns exactly this
// combination.
func (r ChaosRun) Replay(sweepSeed int64) string {
	return fmt.Sprintf("autocheck chaos -seed %d -benchmark %s -stack %s -schedule %s",
		sweepSeed, r.Bench, r.Stack, r.Schedule)
}

// ChaosReport is the sweep summary.
type ChaosReport struct {
	Seed     int64
	Runs     []ChaosRun
	Failures int
}

// chaosPrep caches one benchmark's protocol, its stack still unset, and
// its failure-free trajectory.
type chaosPrep struct {
	fs  *validate.FailStop
	ref *validate.Reference
}

// chaosPrepare compiles, analyzes, and records the failure-free
// trajectory of one benchmark, which every run's recovery is checked
// against.
func chaosPrepare(name string) (*chaosPrep, error) {
	bench := progs.Get(name)
	if bench == nil {
		return nil, fmt.Errorf("harness: unknown benchmark %q", name)
	}
	mod, res, err := analyzed(bench, 0)
	if err != nil {
		return nil, err
	}
	fs, err := validate.NewFailStop(mod, res, store.Config{}, 0)
	if err != nil {
		return nil, err
	}
	ref, err := validate.Record(fs.Loop, fs.Critical)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", name, err)
	}
	return &chaosPrep{fs: fs, ref: ref}, nil
}

// chaosSeed derives one combination's fault seed from the sweep seed.
func chaosSeed(seed int64, bench, stack, schedule string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", bench, stack, schedule)
	derived := seed ^ int64(h.Sum64())
	if derived == 0 {
		derived = 1
	}
	return derived
}

// chaosService is the per-run checkpoint service of the remote stacks:
// memory-backed namespaces, the run's registry armed on both the
// request path and the namespace backends.
type chaosService struct {
	srv  *server.Server
	addr string
	errc chan error
}

func startChaosService(reg *faultinject.Registry) (*chaosService, error) {
	srv := server.NewWithFactory(
		server.Config{MaxInFlight: 16, Faults: reg},
		func(ns string) (store.Backend, error) {
			b := store.NewMemory()
			store.InjectFaults(b, reg)
			return b, nil
		})
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		return &chaosService{srv: srv, addr: addr, errc: errc}, nil
	case err := <-errc:
		return nil, fmt.Errorf("harness: chaos service: %w", err)
	}
}

func (s *chaosService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.errc
}

// RunChaosValidation executes the sweep and reports every run. The
// returned error covers harness-level problems (unknown benchmark,
// broken stack name); injected failures never error the sweep — they
// land in the report, failures counted and replayable.
func RunChaosValidation(scratch string, opts ChaosOptions) (*ChaosReport, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	benches := opts.Benchmarks
	if len(benches) == 0 {
		if opts.Quick {
			benches = []string{"IS"}
		} else {
			benches = []string{"IS", "EP", "CG"}
		}
	}
	stacks := opts.Stacks
	if len(stacks) == 0 {
		if opts.Quick {
			stacks = chaosQuickStacks()
		} else {
			stacks = ChaosStacks()
		}
	}
	catalog := ChaosSchedules(opts.Quick)
	if len(opts.Schedules) > 0 {
		var filtered []ChaosSchedule
		for _, name := range opts.Schedules {
			found := false
			for _, s := range catalog {
				if s.Name == name {
					filtered = append(filtered, s)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("harness: unknown chaos schedule %q", name)
			}
		}
		catalog = filtered
	}
	rep := &ChaosReport{Seed: opts.Seed}
	for _, bname := range benches {
		prep, err := chaosPrepare(bname)
		if err != nil {
			return nil, err
		}
		for _, stack := range stacks {
			if _, _, _, err := chaosStackConfig(stack, "x"); err != nil {
				return nil, err
			}
			for runIdx, sched := range catalog {
				if !stackSatisfies(stack, sched.Needs) {
					continue
				}
				dir := filepath.Join(scratch, fmt.Sprintf("%s-%s-%s-%d", bname, strings.ReplaceAll(stack, "+", "_"), sched.Name, runIdx))
				run := chaosOne(prep, bname, stack, sched, dir, chaosSeed(opts.Seed, bname, stack, sched.Name))
				if !run.OK {
					rep.Failures++
				}
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	return rep, nil
}

// chaosOne runs one benchmark × stack × schedule combination.
func chaosOne(prep *chaosPrep, bname, stack string, sched ChaosSchedule, dir string, seed int64) ChaosRun {
	run := ChaosRun{Bench: bname, Stack: stack, Schedule: sched.Name, Seed: seed}
	fail := func(format string, args ...any) ChaosRun {
		run.OK = false
		run.Detail = fmt.Sprintf(format, args...)
		return run
	}
	reg := faultinject.NewRegistry(seed)
	if err := reg.ArmSchedule(sched.Write); err != nil {
		return fail("bad write schedule: %v", err)
	}
	scfg, level, services, err := chaosStackConfig(stack, dir)
	if err != nil {
		return fail("%v", err)
	}
	scfg.Faults = reg
	// Remote stacks get one live checkpoint service; replicated stacks a
	// cluster of them. All share the run's registry, so server-side sites
	// (store.put on a node's backend) stay injectable — node-targeted
	// faults use the client-side per-replica sites instead.
	var addrs []string
	for i := 0; i < services; i++ {
		svc, err := startChaosService(reg)
		if err != nil {
			return fail("%v", err)
		}
		defer svc.stop()
		addrs = append(addrs, svc.addr)
	}
	switch scfg.Kind {
	case store.KindRemote:
		scfg.Addr = addrs[0]
	case store.KindReplicated:
		scfg.Addrs = addrs
	}

	f := *prep.fs
	f.Store, f.Level, f.Retain = scfg, level, sched.Retain
	defer f.Close()

	// ---- fault phase: checkpoint every iteration until the schedule
	// kills the "process" (error or crash) or the run completes.
	d, err := f.Run(0, nil)
	if err != nil {
		return fail("open context: %v", err)
	}
	// Settle durability knowledge: without an async layer every counted
	// commit is durable; with one, only a clean flush proves it. A failed
	// async flush is the same death as a failed Checkpoint: which of the
	// two calls happens to surface the writer's deferred error is a
	// wall-clock race, so both must classify alike for a seed to replay.
	lost := scfg.Async && d.FlushErr != nil
	died := d.Err != nil || lost
	durable := d.Committed > 0 && !lost

	// ---- recovery phase: a Context over the surviving store, the
	// restart schedule (if any) armed on the same registry.
	reg.DisarmAll()
	if err := reg.ArmSchedule(sched.Restart); err != nil {
		return fail("bad restart schedule: %v", err)
	}

	// Replicated stacks run one deterministic scrub sweep between death
	// and recovery. A sweep on a wall-clock cadence would not replay, so
	// the harness invokes the sweep explicitly at
	// the one point it matters: after the fault phase diverged the
	// replicas, before the restart that must not notice any of it. The
	// restart schedule is already armed, so scrub-targeted faults
	// (store.replicated.scrub) land here; an aborted scrub is
	// survivable — the recovery phase below is what verifies state.
	if scfg.Kind == store.KindReplicated {
		scrubCfg := scfg
		scrubCfg.CacheMB = 0
		_ = validate.Guard(func() error {
			b, err := store.Open(scrubCfg)
			if err != nil {
				return err
			}
			defer b.Close()
			if rep, ok := b.(*store.Replicated); ok {
				_, _, err = rep.ScrubOnce()
			}
			return err
		})
	}

	rec := f.Recover(nil)
	run.Events = reg.Fired()
	for _, e := range reg.Events() {
		run.EventLog = append(run.EventLog, e.String())
	}

	crash, crashed := rec.Err.(*faultinject.Crash)
	switch {
	case crashed:
		// A crash during recovery is only legitimate if the restart
		// schedule armed one.
		if sched.Restart == "" {
			return fail("recovery crashed with no restart schedule armed: %v", crash)
		}
		run.OK = true
		run.Outcome = "clean-error"
		run.Detail = crash.Error()
	case rec.Err != nil:
		// Recovery refused. That is the contract — a typed error, never
		// fabricated state — but only when there was genuinely nothing
		// durable to recover, or the recovery path itself was under
		// injected fire.
		if durable && sched.Restart == "" {
			return fail("restart failed despite %d durable checkpoints: %v", d.Committed, rec.Err)
		}
		run.OK = true
		run.Outcome = "clean-error"
		run.Detail = rec.Err.Error()
	default:
		if msg := rec.Check(prep.ref); msg != "" {
			return fail("%s", msg)
		}
		run.OK = true
		switch {
		case run.Events == 0:
			run.Outcome = "no-fire"
		case died:
			run.Outcome = "recovered"
			run.Detail = fmt.Sprintf("died after %d commits, recovered iteration %d", d.Committed, rec.Iter)
		default:
			run.Outcome = "absorbed"
			run.Detail = fmt.Sprintf("%d faults absorbed; recovery verified at iteration %d", run.Events, rec.Iter)
		}
	}
	return run
}

// FormatChaos renders the sweep report, failures first in replayable
// form.
func FormatChaos(rep *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos validation sweep (seed %d): %d runs, %d failures\n",
		rep.Seed, len(rep.Runs), rep.Failures)
	for _, r := range rep.Runs {
		status := "PASS"
		if !r.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %s  %-8s %-16s %-18s events=%-3d %-11s %s\n",
			status, r.Bench, r.Stack, r.Schedule, r.Events, r.Outcome, r.Detail)
		if !r.OK {
			fmt.Fprintf(&b, "        seed=%d  schedule={write:%q restart:%q}\n        replay: %s\n",
				r.Seed, scheduleSpec(r.Schedule, true), scheduleSpec(r.Schedule, false), r.Replay(rep.Seed))
			for _, e := range r.EventLog {
				fmt.Fprintf(&b, "        fired: %s\n", e)
			}
		}
	}
	return b.String()
}

// scheduleSpec looks a named schedule's spec back up for the report.
func scheduleSpec(name string, write bool) string {
	for _, quick := range []bool{false, true} {
		for _, s := range ChaosSchedules(quick) {
			if s.Name == name {
				if write {
					return s.Write
				}
				return s.Restart
			}
		}
	}
	return ""
}
