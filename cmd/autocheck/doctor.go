package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"autocheck/internal/checkpoint"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/wire"
)

// Doctor exit codes, one per failure class, so scripts and CI can branch
// without parsing output; doctorNotes documents them.
const (
	doctorConnectivity = 10
	doctorCanary       = 11
	doctorIntegrity    = 12
	doctorMetrics      = 13
	doctorQuorum       = 14
)

const doctorNotes = `Probes a live service (-addr: /v1/stats, a canary write/read/delete,
/v1/metrics), a replicated cluster (-addrs: every node, a quorum canary,
a divergence scan) or a local stack (-dir, -store and the cache and
decorator flags: the canary, then every stored key's dependency chain).
Each check prints a line; the first failure exits with its class's code:
  0   healthy
  10  connectivity: service unreachable, or the store stack won't open
  11  canary: the write/read/delete round trip failed or returned wrong bytes
  12  integrity: a broken dependency chain or an unreadable checkpoint
  13  metrics: the endpoint is missing or malformed
  14  quorum: the replica quorum is unavailable, or the replicas diverged`

func cmdDoctor(fs *flag.FlagSet) func() error {
	sf := addStorageFlags(fs, "addr", "addrs", "write-quorum", "read-quorum", "store", "dir",
		"cache-mb", "async", "incremental", "keyframe")
	ns := fs.String("ns", "doctor", "live and cluster modes: service namespace for the canary probe")
	return func() error {
		addr, addrs := sf.cfg.Addr, splitList(sf.addrs)
		if addr != "" && len(addrs) > 0 {
			return fmt.Errorf("doctor takes -addr (one service) or -addrs (a cluster), not both")
		}
		if len(addrs) > 0 {
			return doctorCluster(addrs, *ns, sf.cfg.WriteQuorum, sf.cfg.ReadQuorum)
		}
		if addr != "" {
			return doctorLive(addr, *ns)
		}
		cfg, err := sf.config()
		if err != nil {
			return err
		}
		if cfg.Kind == store.KindRemote {
			return fmt.Errorf("doctor probes a live service with -addr, not -store remote")
		}
		if cfg.Dir == "" && cfg.Kind != store.KindMemory {
			return fmt.Errorf("doctor needs -addr (live service) or -dir (local store)")
		}
		return doctorLocal(cfg)
	}
}

const canaryKey = "doctor-canary"

// canaryRoundTrip writes, reads back, verifies, and deletes the canary
// key on any backend. The key carries no "ckpt-" prefix, so retention
// and restart logic never consider it. The CRC spot check is implicit: a
// Get only succeeds if every section's stored checksum still matches its
// bytes.
func canaryRoundTrip(b store.Backend) error {
	want := []store.Section{
		{Name: "canary", Data: bytes.Repeat([]byte("autocheck-doctor"), 16)},
		{Name: "stamp", Data: []byte("doctor")},
	}
	if err := b.Put(canaryKey, want); err != nil {
		return fmt.Errorf("canary put: %w", err)
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("canary flush: %w", err)
	}
	got, err := b.Get(canaryKey)
	if err != nil {
		return fmt.Errorf("canary get: %w", err)
	}
	if !slices.EqualFunc(got, want, func(g, w store.Section) bool { return g.Name == w.Name && bytes.Equal(g.Data, w.Data) }) {
		return fmt.Errorf("canary read back sections that do not match what was written")
	}
	if err := b.Delete(canaryKey); err != nil {
		return fmt.Errorf("canary delete: %w", err)
	}
	return nil
}

// doctorLive probes a running checkpoint service: connectivity via
// /v1/stats, a canary round trip through a real client, and the metrics
// endpoint's health.
func doctorLive(addr, ns string) error {
	// Connectivity: the stats endpoint answers and decodes.
	var stats server.StatsReport
	if err := probe(addr, "/v1/stats", &stats); err != nil {
		return &exitError{doctorConnectivity, fmt.Errorf("doctor: connectivity: %w", err)}
	}
	fmt.Printf("doctor: connectivity OK (addr=%s namespaces=%d requests=%d)\n",
		addr, stats.Namespaces, stats.Requests)

	// Canary: a full write/read/delete through the real client path,
	// CRC-verified on decode.
	r, err := store.NewRemote(addr, ns)
	if err != nil {
		return &exitError{doctorCanary, fmt.Errorf("doctor: canary client: %w", err)}
	}
	defer r.Close()
	r.Retry = wire.Retry{MaxAttempts: 2, Backoff: 50 * time.Millisecond}
	if err := canaryRoundTrip(r); err != nil {
		return &exitError{doctorCanary, fmt.Errorf("doctor: %w", err)}
	}
	fmt.Printf("doctor: canary OK (namespace=%s key=%s)\n", ns, canaryKey)

	// Metrics: the endpoint answers, decodes, and covers the canary
	// traffic just generated.
	var rep server.MetricsReport
	if err := probe(addr, "/v1/metrics", &rep); err != nil {
		return &exitError{doctorMetrics, fmt.Errorf("doctor: metrics: %w", err)}
	}
	if rep.Metrics.Histograms["server.put.ns"].Count == 0 {
		return &exitError{doctorMetrics, fmt.Errorf("doctor: metrics: no server.put.ns samples after canary write")}
	}
	fmt.Printf("doctor: metrics OK (put p95=%s get p95=%s%s)\n",
		time.Duration(rep.Metrics.Histograms["server.put.ns"].P95Ns),
		time.Duration(rep.Metrics.Histograms["server.get.ns"].P95Ns),
		cacheRateText(rep.Stats.Store))

	// Admission: the shed breakdown belongs in the health probe — a
	// shedding service is "up" to every other check here.
	if total := rep.Metrics.Counters["server.shed"]; total > 0 {
		fmt.Printf("doctor: admission shed=%d%s\n", total, shedBreakdownText(rep.Metrics.Counters, "server"))
	} else {
		fmt.Println("doctor: admission OK (no requests shed)")
	}
	fmt.Println("doctor: all checks passed")
	return nil
}

// shedBreakdownText renders the per-reason and per-tenant shed counters
// under <prefix>.shed as " (reason=N ... | tenant=N ...)", tenants
// sorted by count so the loudest neighbor leads.
func shedBreakdownText(counters map[string]int64, prefix string) string {
	var parts []string
	for _, reason := range []string{"inflight", "tenant_quota", "rate", "drain"} {
		if n := counters[prefix+".shed."+reason]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", reason, n))
		}
	}
	nsPrefix := prefix + ".shed.ns."
	type nsShed struct {
		tenant string
		n      int64
	}
	var tenants []nsShed
	for name, n := range counters {
		if strings.HasPrefix(name, nsPrefix) && n > 0 {
			tenants = append(tenants, nsShed{strings.TrimPrefix(name, nsPrefix), n})
		}
	}
	slices.SortFunc(tenants, func(a, b nsShed) int {
		return cmp.Or(cmp.Compare(b.n, a.n), strings.Compare(a.tenant, b.tenant))
	})
	for _, t := range tenants {
		parts = append(parts, fmt.Sprintf("%s=%d", t.tenant, t.n))
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, " ") + ")"
}

// doctorCluster probes a replicated deployment: every node's health
// endpoint, then a canary round trip and a cross-replica divergence scan
// through the real quorum tier. Dead nodes are tolerated as long as the
// healthy count still covers both quorums; anything less — and any
// divergence the scan finds — exits with the quorum class (14). An
// out-of-range quorum is rejected before any probe.
func doctorCluster(addrs []string, ns string, writeQuorum, readQuorum int) error {
	b, err := store.Open(store.Config{
		Kind: store.KindReplicated, Addrs: addrs, Namespace: ns,
		WriteQuorum: writeQuorum, ReadQuorum: readQuorum,
	})
	if err != nil {
		return err
	}
	defer b.Close()
	rep := b.(*store.Replicated)
	healthy := 0
	for i, a := range addrs {
		var stats server.StatsReport
		if err := probe(a, "/v1/stats", &stats); err != nil {
			fmt.Printf("doctor: node %d DOWN (addr=%s: %v)\n", i, a, err)
			continue
		}
		healthy++
		fmt.Printf("doctor: node %d OK (addr=%s namespaces=%d requests=%d)\n",
			i, a, stats.Namespaces, stats.Requests)
	}
	n := len(addrs)
	w, r := rep.Quorums()
	need := max(w, r)
	if healthy < need {
		return &exitError{doctorQuorum,
			fmt.Errorf("doctor: quorum unavailable: %d/%d replicas healthy, W=%d R=%d needs %d", healthy, n, w, r, need)}
	}
	fmt.Printf("doctor: quorum OK (%d/%d replicas healthy, W=%d R=%d)\n", healthy, n, w, r)

	if err := canaryRoundTrip(b); err != nil {
		return &exitError{quorumOr(doctorCanary, err), fmt.Errorf("doctor: %w", err)}
	}
	fmt.Printf("doctor: quorum canary OK (namespace=%s key=%s)\n", ns, canaryKey)

	scanned, repaired, err := rep.ScrubOnce()
	if err != nil {
		return &exitError{quorumOr(doctorIntegrity, err), fmt.Errorf("doctor: divergence scan: %w", err)}
	}
	if repaired > 0 {
		return &exitError{doctorQuorum,
			fmt.Errorf("doctor: divergence: %d of %d keys disagreed across replicas (read-repair re-converged them; investigate what diverged the nodes)", repaired, scanned)}
	}
	fmt.Printf("doctor: divergence scan OK (%d keys, replicas agree)\n", scanned)
	fmt.Println("doctor: all checks passed")
	return nil
}

// openLocal opens the stack doctorLocal examines. A store holding a
// checkpoint Context's level-suffixed keys opens through the chain the
// Context writes through, whose deltas name logical keys; L1 reads it,
// since every level writes the primary copy.
func openLocal(cfg store.Config) (store.Backend, error) {
	b, err := store.Open(cfg)
	if err != nil {
		return nil, err
	}
	if keys, err := b.List(); err == nil && checkpoint.HasLevelKeys(keys) {
		b.Close()
		return checkpoint.OpenStore(cfg, checkpoint.L1)
	}
	return store.Decorate(b, cfg), nil
}

// quorumOr is the exit code for a cluster check's failure: the quorum
// class when replicas were unavailable, code otherwise.
func quorumOr(code int, err error) int {
	if errors.Is(err, store.ErrUnavailable) {
		return doctorQuorum
	}
	return code
}

// doctorLocal opens a store stack and examines it in place: open,
// canary round trip, then an integrity walk over every stored key.
func doctorLocal(cfg store.Config) error {
	b, err := openLocal(cfg)
	if err != nil {
		return &exitError{doctorConnectivity, fmt.Errorf("doctor: open: %w", err)}
	}
	defer b.Close()
	fmt.Printf("doctor: open OK (store=%s dir=%q async=%v incremental=%v)\n",
		cfg.Kind, cfg.Dir, cfg.Async, cfg.Incremental)

	if err := canaryRoundTrip(b); err != nil {
		return &exitError{doctorCanary, fmt.Errorf("doctor: %w", err)}
	}
	fmt.Printf("doctor: canary OK (key=%s)\n", canaryKey)

	// Integrity walk: every stored object's dependency chain must be
	// complete, and the newest checkpoint must read back CRC-clean.
	keys, err := b.List()
	if err != nil {
		return &exitError{doctorIntegrity, fmt.Errorf("doctor: list: %w", err)}
	}
	present := make(map[string]bool, len(keys))
	for _, k := range keys {
		present[k] = true
	}
	for _, k := range keys {
		deps, err := store.DependenciesOf(b, k)
		if err != nil {
			return &exitError{doctorIntegrity, fmt.Errorf("doctor: dependencies of %s: %w", k, err)}
		}
		for _, dep := range deps {
			if !present[dep] {
				return &exitError{doctorIntegrity,
					fmt.Errorf("doctor: %s depends on missing key %s (broken chain)", k, dep)}
			}
		}
	}
	if len(keys) > 0 {
		slices.Sort(keys)
		newest := keys[len(keys)-1]
		if _, err := b.Get(newest); err != nil {
			return &exitError{doctorIntegrity, fmt.Errorf("doctor: reading newest key %s: %w", newest, err)}
		}
		fmt.Printf("doctor: integrity OK (%d keys, chains complete, newest %s reads back)\n", len(keys), newest)
	} else {
		fmt.Println("doctor: integrity OK (store is empty)")
	}

	st := b.Stats()
	fmt.Printf("doctor: stats puts=%d gets=%d bytes-written=%d%s\n",
		st.Puts, st.Gets, st.BytesWritten, cacheRateText(st))
	fmt.Println("doctor: all checks passed")
	return nil
}

// cacheRateText renders the cache hit rate when a cache tier saw any
// traffic, and nothing otherwise.
func cacheRateText(st store.Stats) string {
	total := st.CacheHits + st.CacheFollowerHits + st.CacheMisses
	if total == 0 {
		return ""
	}
	rate := float64(st.CacheHits+st.CacheFollowerHits) / float64(total)
	return fmt.Sprintf(" cache-hit-rate=%.1f%%", 100*rate)
}

// probe fetches path from the service at addr in one attempt through
// the shared transport and decodes the JSON answer. A refused dial fails
// at once, so a dead service is reported immediately.
func probe(addr, path string, into any) error {
	t, err := wire.New("doctor", addr, func(status int, _ []byte) error {
		return fmt.Errorf("GET %s: %d %s", path, status, http.StatusText(status))
	})
	if err != nil {
		return err
	}
	defer t.Close()
	body, err := t.Do(wire.Retry{MaxAttempts: 1}, wire.Request{Method: http.MethodGet, Path: path, FailFastDial: true})
	var uerr *url.Error
	if errors.As(err, &uerr) {
		return uerr // a network failure, worded as the GET reported it
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}
