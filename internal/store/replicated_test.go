package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"autocheck/internal/faultinject"
)

// newReplicatedMemory builds a 3-node cluster over memory backends and
// hands back the raw replicas for per-node assertions.
func newReplicatedMemory(t *testing.T, opts ReplicatedOptions) (*Replicated, []*Memory) {
	t.Helper()
	mems := []*Memory{NewMemory(), NewMemory(), NewMemory()}
	backends := make([]Backend, len(mems))
	for i, m := range mems {
		backends[i] = m
	}
	rep, err := NewReplicated(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep, mems
}

func TestReplicatedOptionsValidation(t *testing.T) {
	if _, err := NewReplicated(nil, ReplicatedOptions{}); err == nil {
		t.Error("0 replicas accepted")
	}
	three := []Backend{NewMemory(), NewMemory(), NewMemory()}
	if _, err := NewReplicated(three, ReplicatedOptions{WriteQuorum: 4}); err == nil {
		t.Error("W > N accepted")
	}
	if _, err := NewReplicated(three, ReplicatedOptions{ReadQuorum: -1}); err == nil {
		t.Error("negative R accepted")
	}
	rep, err := NewReplicated(three, ReplicatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if w, r := rep.Quorums(); w != 2 || r != 2 {
		t.Errorf("default quorums = %d/%d, want majority 2/2", w, r)
	}
	if len(rep.replicas) != 3 {
		t.Errorf("replicas = %d, want 3", len(rep.replicas))
	}
}

// TestReplicatedWriteQuorum: with W=2 of 3 a persistently failing
// replica is absorbed; with W=3 the same fault fails the Put with the
// unavailable class.
func TestReplicatedWriteQuorum(t *testing.T) {
	rep, mems := newReplicatedMemory(t, ReplicatedOptions{WriteQuorum: 2})
	defer rep.Close()
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteReplicaPut(2), Action: faultinject.ActionError, From: 1})
	rep.SetFaults(reg)
	for i := 1; i <= 3; i++ {
		if err := rep.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatalf("W=2 put %d: %v", i, err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, m := range mems[:2] {
		if keys, _ := m.List(); len(keys) != 3 {
			t.Errorf("replica %d holds %d keys, want 3", i, len(keys))
		}
	}
	if keys, _ := mems[2].List(); len(keys) != 0 {
		t.Errorf("faulted replica holds %d keys, want 0", len(keys))
	}

	strict, _ := newReplicatedMemory(t, ReplicatedOptions{WriteQuorum: 3})
	defer strict.Close()
	reg2 := faultinject.NewRegistry(1)
	reg2.Arm(faultinject.Failpoint{Site: SiteReplicaPut(2), Action: faultinject.ActionError, From: 1})
	strict.SetFaults(reg2)
	err := strict.Put("ckpt-000001", sampleSections(1))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("W=3 put with a dead replica = %v, want ErrUnavailable", err)
	}
}

// TestReplicatedReadRepairAfterDiskCorruption is the divergence test:
// write through W=1, corrupt one replica's blob on disk, and check that
// a quorum read detects the corruption, serves the good copy, restores
// the corrupted replica byte-identically, and counts the repair.
func TestReplicatedReadRepairAfterDiskCorruption(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	backends := make([]Backend, 3)
	for i, dir := range dirs {
		f, err := NewFile(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = f
	}
	rep, err := NewReplicated(backends, ReplicatedOptions{WriteQuorum: 1, ReadQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	const key = "ckpt-000001"
	want := sampleSections(7)
	if err := rep.Put(key, want); err != nil {
		t.Fatal(err)
	}
	// W=1 acks after the first replica; Flush is the all-replica barrier
	// that settles the stragglers.
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of replica 0's object behind the store's back.
	path0 := filepath.Join(dirs[0], key)
	blob, err := os.ReadFile(path0)
	if err != nil {
		t.Fatal(err)
	}
	blob[20] ^= 0xFF
	if err := os.WriteFile(path0, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := rep.Get(key)
	if err != nil {
		t.Fatalf("Get over a corrupted replica: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Get did not return the intact copy")
	}
	if st := rep.Stats(); st.Repairs != 1 {
		t.Errorf("Stats.Repairs = %d, want 1", st.Repairs)
	}
	repaired, err := os.ReadFile(path0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dirs[1], key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, good) {
		t.Error("read-repair did not restore the replica byte-identically")
	}
}

// TestReplicatedScrubRepairsDivergence: a replica that missed every
// write (partitioned during the fault phase) is restored by one scrub
// sweep without any client read touching the divergent keys.
func TestReplicatedScrubRepairsDivergence(t *testing.T) {
	rep, mems := newReplicatedMemory(t, ReplicatedOptions{WriteQuorum: 2})
	defer rep.Close()
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteReplicaPut(2), Action: faultinject.ActionError, From: 1})
	rep.SetFaults(reg)
	for i := 1; i <= 4; i++ {
		if err := rep.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	reg.DisarmAll() // the partition heals

	scanned, repaired, err := rep.ScrubOnce()
	if err != nil {
		t.Fatalf("ScrubOnce: %v", err)
	}
	if scanned != 4 || repaired != 4 {
		t.Errorf("ScrubOnce = (%d scanned, %d repaired), want (4, 4)", scanned, repaired)
	}
	for i := 1; i <= 4; i++ {
		key := fmt.Sprintf("ckpt-%06d", i)
		got, err := mems[2].Get(key)
		if err != nil {
			t.Fatalf("replica 2 %s after scrub: %v", key, err)
		}
		if !reflect.DeepEqual(got, sampleSections(byte(i))) {
			t.Errorf("replica 2 %s differs after scrub", key)
		}
	}
	if st := rep.Stats(); st.Repairs != 4 {
		t.Errorf("Stats.Repairs = %d, want 4", st.Repairs)
	}
	// A second sweep finds nothing to do.
	if _, repaired, _ := rep.ScrubOnce(); repaired != 0 {
		t.Errorf("second scrub repaired %d replicas, want 0", repaired)
	}
}

// TestReplicatedHedgedRead: with one slow replica and R=1, the hedge
// timer asks a second node and its fast answer wins.
func TestReplicatedHedgedRead(t *testing.T) {
	rep, _ := newReplicatedMemory(t, ReplicatedOptions{ReadQuorum: 1, HedgeAfter: 2 * time.Millisecond})
	defer rep.Close()
	const key = "ckpt-000001"
	want := sampleSections(3)
	if err := rep.Put(key, want); err != nil {
		t.Fatal(err)
	}
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteReplicaGet(0), Action: faultinject.ActionDelay, From: 1, Delay: 200 * time.Millisecond})
	rep.SetFaults(reg)

	t0 := time.Now()
	got, err := rep.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("hedged Get returned wrong sections")
	}
	if d := time.Since(t0); d >= 200*time.Millisecond {
		t.Errorf("hedged Get took %v, the slow replica's full delay", d)
	}
	st := rep.Stats()
	if st.HedgesFired != 1 || st.HedgesWon != 1 {
		t.Errorf("hedge stats = fired %d / won %d, want 1/1", st.HedgesFired, st.HedgesWon)
	}
}

// TestReplicatedHedgingDisabled: HedgeAfter < 0 never hedges — the Get
// waits out the slow replica.
func TestReplicatedHedgingDisabled(t *testing.T) {
	rep, _ := newReplicatedMemory(t, ReplicatedOptions{ReadQuorum: 1, HedgeAfter: -1})
	defer rep.Close()
	const key = "ckpt-000001"
	if err := rep.Put(key, sampleSections(3)); err != nil {
		t.Fatal(err)
	}
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteReplicaGet(0), Action: faultinject.ActionDelay, From: 1, Delay: 20 * time.Millisecond})
	rep.SetFaults(reg)
	t0 := time.Now()
	if _, err := rep.Get(key); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Errorf("Get took %v with hedging disabled, want the full slow-replica delay", d)
	}
	if st := rep.Stats(); st.HedgesFired != 0 {
		t.Errorf("HedgesFired = %d with hedging disabled", st.HedgesFired)
	}
}

// TestReplicatedCrashKillsReplica: an injected crash at a replica's put
// site behaves like node death — that replica stops applying anything,
// the cluster keeps serving reads and quorum writes.
func TestReplicatedCrashKillsReplica(t *testing.T) {
	rep, mems := newReplicatedMemory(t, ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	defer rep.Close()
	reg := faultinject.NewRegistry(1)
	reg.Arm(faultinject.Failpoint{Site: SiteReplicaPut(1), Action: faultinject.ActionCrash, Nth: 2})
	rep.SetFaults(reg)
	for i := 1; i <= 3; i++ {
		if err := rep.Put(fmt.Sprintf("ckpt-%06d", i), sampleSections(byte(i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatalf("flush with one dead node: %v", err)
	}
	// The node died on its second write: only the first landed there.
	if keys, _ := mems[1].List(); len(keys) != 1 {
		t.Errorf("crashed replica holds %d keys, want 1", len(keys))
	}
	// Reads route around the corpse.
	for i := 1; i <= 3; i++ {
		got, err := rep.Get(fmt.Sprintf("ckpt-%06d", i))
		if err != nil {
			t.Fatalf("get %d with one dead node: %v", i, err)
		}
		if !reflect.DeepEqual(got, sampleSections(byte(i))) {
			t.Errorf("get %d: wrong sections", i)
		}
	}
}

// TestReplicatedValidBeatsNotFound: with W=1 a write may have reached
// only one node; a quorum read that sees {valid, not-found} must return
// the valid copy and repair the laggard.
func TestReplicatedValidBeatsNotFound(t *testing.T) {
	rep, mems := newReplicatedMemory(t, ReplicatedOptions{WriteQuorum: 1, ReadQuorum: 3})
	defer rep.Close()
	const key = "ckpt-000001"
	want := sampleSections(9)
	// Plant the object on replica 1 only, behind the tier's back.
	if err := mems[1].Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := rep.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("valid copy did not beat NotFound answers")
	}
	if st := rep.Stats(); st.Repairs != 2 {
		t.Errorf("Stats.Repairs = %d, want 2", st.Repairs)
	}
	for i := 0; i < 3; i++ {
		if _, err := mems[i].Get(key); err != nil {
			t.Errorf("replica %d after read-repair: %v", i, err)
		}
	}
}

// TestReplicatedOpenStack: store.Open wires Kind=KindReplicated over
// remote endpoints, and the cache tier composes on top.
func TestReplicatedOpenStack(t *testing.T) {
	svcs := []*fakeService{newFakeService(t), newFakeService(t), newFakeService(t)}
	addrs := make([]string, len(svcs))
	for i, s := range svcs {
		addrs[i] = s.srv.URL
	}
	b, err := Open(Config{Kind: KindReplicated, Addrs: addrs, Namespace: "open-stack", CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	want := sampleSections(5)
	if err := b.Put("ckpt-000001", want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("ckpt-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("round trip through Open(replicated)+cache differs")
	}
	// The default write quorum is 2 of 3: at least two services hold it.
	holders := 0
	for _, s := range svcs {
		if _, err := s.backend("open-stack").Get("ckpt-000001"); err == nil {
			holders++
		}
	}
	if holders < 2 {
		t.Errorf("object on %d services, want >= write quorum 2", holders)
	}
	if _, err := Open(Config{Kind: KindReplicated}); err == nil {
		t.Error("Open(replicated) without Addrs accepted")
	}
}

// TestReplicatedSurvivesDeadEndpoint: one replica address points at a
// dead listener; FailFastDial (set by Open) keeps quorum operations
// prompt instead of burning the whole retry budget per op.
func TestReplicatedSurvivesDeadEndpoint(t *testing.T) {
	svcs := []*fakeService{newFakeService(t), newFakeService(t)}
	addrs := []string{svcs[0].srv.URL, svcs[1].srv.URL, deadListenerAddr(t)}
	b, err := Open(Config{Kind: KindReplicated, Addrs: addrs, Namespace: "dead-end"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	t0 := time.Now()
	if err := b.Put("ckpt-000001", sampleSections(1)); err != nil {
		t.Fatalf("put with one dead endpoint: %v", err)
	}
	if _, err := b.Get("ckpt-000001"); err != nil {
		t.Fatalf("get with one dead endpoint: %v", err)
	}
	// Generous bound: the point is that nobody waited out a 15s retry
	// budget against the dead endpoint.
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("quorum ops took %v with a dead endpoint", d)
	}
}
