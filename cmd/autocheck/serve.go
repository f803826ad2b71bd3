package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autocheck/internal/admission"
	"autocheck/internal/analysis"
	"autocheck/internal/server"
	"autocheck/internal/store"
)

const serveNotes = `The service "validate -store remote" clients checkpoint into. -dir holds
one subdirectory per client namespace (default: a fresh temp dir; one
more level per node with -cluster). SIGINT or SIGTERM drains every node
and prints its totals.`

func cmdServe(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:9473", "listen address")
	cluster := fs.Int("cluster", 1, "run this many independent service nodes in one process; their ports count up from -addr's (a :0 base lets the kernel pick each) and the -addrs list for replicated clients is printed")
	sf := addStorageFlags(fs, "store", "dir", "sync")
	maxInFlight := fs.Int("max-inflight", server.DefaultMaxInFlight, "bound on concurrently served requests; excess gets 503 + Retry-After, which clients absorb by retrying")
	tenantSlots := fs.Int("tenant-slots", 0, "per-tenant concurrent request cap (0 = unlimited)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained requests/sec token-bucket rate (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = rate rounded up)")
	queueDepth := fs.Int("queue-depth", 0, "per-tenant wait queue past -max-inflight, drained in weighted priority order (restart > interactive > ingest > scrub); overflow sheds carry a Retry-After computed from queue depth and drain rate (0 = shed immediately)")
	ingest := fs.Bool("ingest", false, "also mount the trace-ingest service: one-shot POST /v1/analyze/{ns} plus resumable chunked sessions under /v1/sessions (single node only)")
	ingestSessions := fs.Int("ingest-sessions", analysis.DefaultMaxSessions, "per-namespace live session quota (with -ingest)")
	ingestInFlight := fs.Int("ingest-inflight", analysis.DefaultMaxInFlight, "per-namespace in-flight ingest request cap (with -ingest)")
	ingestTTL := fs.Duration("ingest-ttl", analysis.DefaultIdleTTL, "idle session eviction TTL; evicted sessions recover from the store on the next request (with -ingest)")
	return func() error {
		cfg, err := sf.config()
		if err != nil {
			return err
		}
		if *cluster < 1 {
			return fmt.Errorf("serve: -cluster must be at least 1")
		}
		if *cluster > 1 && *ingest {
			return fmt.Errorf("serve: -ingest runs on a single node (sessions are per-node state); drop -cluster")
		}
		if cfg.Dir == "" && cfg.Kind != store.KindMemory {
			if cfg.Dir, err = os.MkdirTemp("", "autocheck-serve-*"); err != nil {
				return err
			}
			fmt.Printf("storage root: %s\n", cfg.Dir)
		}
		scfg := server.Config{
			Store:       cfg,
			MaxInFlight: *maxInFlight,
			Admission: admission.Config{
				TenantSlots: *tenantSlots,
				TenantRate:  *tenantRate,
				TenantBurst: *tenantBurst,
				QueueDepth:  *queueDepth,
			},
		}
		if *ingest {
			scfg.Ingest = &analysis.Config{
				MaxSessions: *ingestSessions,
				MaxInFlight: *ingestInFlight,
				IdleTTL:     *ingestTTL,
			}
		}
		return serveNodes(*cluster, *addr, scfg)
	}
}

// serveNodes runs n independent checkpoint services in one process until
// SIGINT or SIGTERM, then drains each and prints its totals. One node is
// the ordinary service. More are the replicated tier's development and
// smoke-test topology (real deployments run one `autocheck serve` per
// node): each node gets its own subdirectory of the storage root and its
// own listener; with a fixed base port the nodes count up from it, and a
// `:0` base lets the kernel pick every port.
func serveNodes(n int, addr string, cfg server.Config) error {
	addrs := []string{addr}
	if n > 1 {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			return fmt.Errorf("serve -cluster: bad -addr %q: %w", addr, err)
		}
		basePort, err := strconv.Atoi(portStr)
		if err != nil {
			return fmt.Errorf("serve -cluster: bad -addr port %q: %w", portStr, err)
		}
		for i := 1; i < n; i++ {
			nodeAddr := addr
			if basePort != 0 {
				nodeAddr = net.JoinHostPort(host, strconv.Itoa(basePort+i))
			}
			addrs = append(addrs, nodeAddr)
		}
	}
	// Only a cluster's lines name the node, so a single node's keep
	// their shape.
	node := func(i int) string {
		if n == 1 {
			return ""
		}
		return fmt.Sprintf("node=%d ", i)
	}
	var (
		srvs   []*server.Server
		bounds []string
	)
	serveErr := make(chan error, n)
	for i, nodeAddr := range addrs {
		ncfg := cfg
		if n > 1 && cfg.Store.Dir != "" {
			ncfg.Store.Dir = filepath.Join(cfg.Store.Dir, fmt.Sprintf("node%d", i))
		}
		srv, err := server.New(ncfg)
		if err != nil {
			return err
		}
		ready := make(chan string, 1)
		go func() { serveErr <- srv.ListenAndServe(nodeAddr, ready) }()
		var bound string
		select {
		case bound = <-ready:
		case err := <-serveErr:
			return err
		}
		srvs = append(srvs, srv)
		bounds = append(bounds, bound)
		// One structured line each for startup and shutdown: greppable
		// key=value pairs that log collectors and the doctor smoke job can
		// consume without parsing prose.
		fmt.Printf("serve: start %saddr=%s store=%s dir=%q max-inflight=%d sync=%v ingest=%v\n",
			node(i), bound, ncfg.Store.Kind, ncfg.Store.Dir, ncfg.MaxInFlight, ncfg.Store.Sync, ncfg.Ingest != nil)
	}
	if n == 1 {
		fmt.Printf("clients: autocheck validate -store remote -addr %s\n", bounds[0])
	} else {
		fmt.Printf("clients: autocheck validate -store replicated -addrs %s\n", strings.Join(bounds, ","))
	}
	if cfg.Ingest != nil {
		fmt.Printf("ingest:  autocheck analyze -addr %s -trace T -start N -end M [-chunk-bytes K]\n", bounds[0])
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		nodes := ""
		if n > 1 {
			nodes = fmt.Sprintf(" %d nodes", n)
		}
		fmt.Printf("\n%v: draining and shutting down%s...\n", s, nodes)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		var firstErr error
		for i, srv := range srvs {
			if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
			rep := srv.Stats()
			fmt.Printf("serve: stop %saddr=%s requests=%d shed=%d namespaces=%d puts=%d gets=%d bytes-written=%d bytes-read=%d cache-hits=%d cache-follower-hits=%d cache-misses=%d\n",
				node(i), bounds[i], rep.Requests, rep.Rejected, rep.Namespaces,
				rep.Store.Puts, rep.Store.Gets, rep.Store.BytesWritten, rep.Store.BytesRead,
				rep.Store.CacheHits, rep.Store.CacheFollowerHits, rep.Store.CacheMisses)
		}
		return firstErr
	}
}
