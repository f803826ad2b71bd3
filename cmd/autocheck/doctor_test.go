package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autocheck/internal/checkpoint"
	"autocheck/internal/interp"
	"autocheck/internal/server"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

func TestDoctorLocalHealthy(t *testing.T) {
	if err := doctorLocal(store.Config{Kind: store.KindFile, Dir: t.TempDir()}); err != nil {
		t.Fatalf("doctorLocal on a fresh store = %v, want nil", err)
	}
}

// TestDoctorLocalBrokenChain deletes a keyframe out from under a delta
// chain and checks the integrity walk reports it with the typed exit
// code.
func TestDoctorLocalBrokenChain(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Kind: store.KindFile, Dir: dir, Incremental: true, Keyframe: 8}
	b, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b = store.Decorate(b, cfg)
	secs := func(fill byte) []store.Section {
		return []store.Section{{Name: "v", Data: bytes.Repeat([]byte{fill}, 64)}}
	}
	if err := b.Put("ckpt-000001", secs(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("ckpt-000002", secs(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the keyframe behind the decorator's back: the delta for
	// ckpt-000002 can no longer be reconstructed.
	inner, err := store.Open(store.Config{Kind: store.KindFile, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Delete("ckpt-000001"); err != nil {
		t.Fatal(err)
	}
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}

	err = doctorLocal(cfg)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != doctorIntegrity {
		t.Fatalf("doctorLocal over broken chain = %v, want exit code %d", err, doctorIntegrity)
	}
}

// TestDoctorLocalContextStore runs the integrity walk over healthy
// incremental stores a checkpoint.Context wrote at L1 and at L2: the
// level-suffixed keys open through the Context's own chain, so every
// delta finds its keyframe.
func TestDoctorLocalContextStore(t *testing.T) {
	mod, err := interp.Compile(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []checkpoint.Level{checkpoint.L1, checkpoint.L2} {
		cfg := store.Config{Kind: store.KindFile, Dir: t.TempDir(), Incremental: true, Keyframe: 8}
		ctx, err := checkpoint.NewContextStore(cfg, level)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(mod)
		ctx.Protect("x", 0x1000, 8)
		ctx.Protect("y", 0x2000, 8)
		m.WriteRange(0x2000, []trace.Value{trace.IntValue(7)})
		for i := int64(1); i <= 5; i++ {
			m.WriteRange(0x1000, []trace.Value{trace.IntValue(100 * i)})
			if err := ctx.Checkpoint(m, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
		if err := doctorLocal(cfg); err != nil {
			t.Errorf("L%d: doctorLocal on a healthy Context store = %v, want nil", level, err)
		}
	}
}

// TestShedBreakdownText pins the doctor's admission line: per-reason
// counters in fixed order, then tenants loudest-first, empty when
// nothing shed.
func TestShedBreakdownText(t *testing.T) {
	counters := map[string]int64{
		"server.shed":             5,
		"server.shed.inflight":    3,
		"server.shed.rate":        2,
		"server.shed.ns.tenant-a": 1,
		"server.shed.ns.tenant-b": 4,
	}
	got := shedBreakdownText(counters, "server")
	want := " (inflight=3 rate=2 tenant-b=4 tenant-a=1)"
	if got != want {
		t.Errorf("shedBreakdownText = %q, want %q", got, want)
	}
	if got := shedBreakdownText(map[string]int64{"server.shed.drain": 0}, "server"); got != "" {
		t.Errorf("shedBreakdownText with no sheds = %q, want empty", got)
	}
}

// startClusterNodes runs n in-process checkpoint services on kernel-picked
// ports and returns their addresses.
func startClusterNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Store: store.Config{Kind: store.KindMemory}})
		if err != nil {
			t.Fatal(err)
		}
		ready := make(chan string, 1)
		go srv.ListenAndServe("127.0.0.1:0", ready)
		addrs[i] = <-ready
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
	}
	return addrs
}

// unboundAddr returns an address nothing listens on: dials are refused
// immediately rather than timing out.
func unboundAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestDoctorClusterHealthy(t *testing.T) {
	addrs := startClusterNodes(t, 3)
	if err := doctorCluster(addrs, "doctor-test", 0, 0); err != nil {
		t.Fatalf("doctorCluster on a healthy cluster = %v, want nil", err)
	}
}

// TestDoctorClusterDegraded kills one of three nodes: majority quorums
// still hold, so the doctor passes — but demanding W=3 makes the same
// cluster quorum-unavailable with the typed exit code.
func TestDoctorClusterDegraded(t *testing.T) {
	addrs := startClusterNodes(t, 2)
	addrs = append(addrs, unboundAddr(t))
	if err := doctorCluster(addrs, "doctor-test", 0, 0); err != nil {
		t.Fatalf("doctorCluster with 2/3 healthy and majority quorums = %v, want nil", err)
	}
	err := doctorCluster(addrs, "doctor-test", 3, 0)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != doctorQuorum {
		t.Fatalf("doctorCluster with 2/3 healthy and W=3 = %v, want exit code %d", err, doctorQuorum)
	}
}

// TestDoctorClusterDivergence plants an object on one replica behind the
// tier's back: the divergence scan must detect (and repair) it, and the
// doctor reports the quorum class so operators investigate.
func TestDoctorClusterDivergence(t *testing.T) {
	addrs := startClusterNodes(t, 3)
	r, err := store.NewRemote(addrs[1], "doctor-test")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Put("ckpt-stray", []store.Section{{Name: "v", Data: bytes.Repeat([]byte{7}, 48)}}); err != nil {
		t.Fatal(err)
	}
	err = doctorCluster(addrs, "doctor-test", 0, 0)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != doctorQuorum {
		t.Fatalf("doctorCluster over a diverged cluster = %v, want exit code %d", err, doctorQuorum)
	}
	// The scan read-repaired while detecting: a second run is clean.
	if err := doctorCluster(addrs, "doctor-test", 0, 0); err != nil {
		t.Fatalf("doctorCluster after the repairing scan = %v, want nil", err)
	}
}

// TestDoctorLive covers live mode against in-process services: a healthy
// one passes, a refused port is the connectivity class at once, and a
// service without /v1/metrics is the metrics class.
func TestDoctorLive(t *testing.T) {
	srv, err := server.New(server.Config{Store: store.Config{Kind: store.KindMemory}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	healthy := httptest.NewServer(srv.Handler())
	defer healthy.Close()
	if err := doctorLive(healthy.URL, "doctor-test"); err != nil {
		t.Fatalf("doctorLive on a healthy service = %v, want nil", err)
	}

	start := time.Now()
	err = doctorLive(unboundAddr(t), "doctor-test")
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != doctorConnectivity {
		t.Fatalf("doctorLive on a refused port = %v, want exit code %d", err, doctorConnectivity)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("doctorLive on a refused port took %v, want under 1s", d)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/v1/metrics", http.NotFoundHandler())
	noMetrics := httptest.NewServer(mux)
	defer noMetrics.Close()
	err = doctorLive(noMetrics.URL, "doctor-test")
	if !errors.As(err, &ee) || ee.code != doctorMetrics {
		t.Fatalf("doctorLive without /v1/metrics = %v, want exit code %d", err, doctorMetrics)
	}
}
