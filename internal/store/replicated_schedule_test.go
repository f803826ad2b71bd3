package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autocheck/internal/faultinject"
)

// scheduleSeeds is how many seeds TestReplicatedRandomSchedules runs; a
// short range keeps the default test run quick, and CI runs a wide one
// under -race with -replicated.seeds=N.
var scheduleSeeds = flag.Int("replicated.seeds", 40, "seeds TestReplicatedRandomSchedules runs")

// scheduleSteps is the length of one random schedule.
const scheduleSteps = 60

// TestReplicatedRandomSchedules is the quorum tier's property over
// random schedules: 3 memory replicas, W = R = 2, write-once keys, and a
// seeded interleaving of Puts, Gets, partitions (an error at a replica's
// put and get sites), at most one kill (a crash there), Memory.Corrupt
// and ScrubOnce. While it runs, a Get that answers returns what was put
// and never loses an acked key. Once the faults clear, the queues drain
// and one ScrubOnce runs, the live replicas hold byte-identical objects
// and every acked Put reads back its sections. A failure prints its seed
// and the operations it ran.
func TestReplicatedRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= int64(*scheduleSeeds); seed++ {
		if ops, err := runReplicatedSchedule(seed); err != nil {
			t.Fatalf("seed %d: %v\noperations:\n  %s", seed, err, strings.Join(ops, "\n  "))
		}
	}
}

func runReplicatedSchedule(seed int64) (ops []string, err error) {
	rng := rand.New(rand.NewSource(seed))
	mems := []*Memory{NewMemory(), NewMemory(), NewMemory()}
	rep, err := NewReplicated([]Backend{mems[0], mems[1], mems[2]},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, HedgeAfter: -1})
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	reg := faultinject.NewRegistry(seed)
	rep.SetFaults(reg)
	live := func(i int) bool { return !rep.replicas[i].down.Load() }

	var partitioned [3]bool
	victim := -1 // the one replica a kill was scheduled on
	rearm := func() {
		reg.DisarmAll()
		if victim >= 0 && live(victim) {
			// Armed first, so a partitioned victim still dies at its next hit.
			for _, site := range []string{SiteReplicaPut(victim), SiteReplicaGet(victim)} {
				reg.Arm(faultinject.Failpoint{Site: site, Action: faultinject.ActionCrash, OneShot: true})
			}
		}
		for i, p := range partitioned {
			if p {
				for _, site := range []string{SiteReplicaPut(i), SiteReplicaGet(i)} {
					reg.Arm(faultinject.Failpoint{Site: site, Action: faultinject.ActionError, From: 1})
				}
			}
		}
	}
	// validElsewhere counts the live replicas other than skip holding a
	// valid copy of key.
	validElsewhere := func(key string, skip int) int {
		n := 0
		for j, m := range mems {
			if j == skip || !live(j) {
				continue
			}
			if _, err := m.GetBlob(key); err == nil {
				n++
			}
		}
		return n
	}

	var keys []string
	want := make(map[string][]Section)
	acked := make(map[string]bool)
	logf := func(format string, args ...any) { ops = append(ops, fmt.Sprintf(format, args...)) }
	for step := 0; step < scheduleSteps; step++ {
		switch p := rng.Intn(100); {
		case p < 30 || len(keys) == 0:
			key := fmt.Sprintf("ckpt-%06d", len(keys)+1)
			sections := randomSections(rng)
			err := rep.Put(key, sections)
			keys = append(keys, key)
			want[key], acked[key] = sections, err == nil
			logf("put %s: %v", key, err)
		case p < 55:
			key := keys[rng.Intn(len(keys))]
			got, err := rep.Get(key)
			logf("get %s: %v", key, err)
			switch {
			case err == nil && !sectionsEqual(got, want[key]):
				return ops, fmt.Errorf("get %s returned sections that were never put", key)
			case errors.Is(err, ErrNotFound) && acked[key]:
				return ops, fmt.Errorf("get %s lost an acked write", key)
			}
		case p < 67:
			i := rng.Intn(3)
			partitioned[i] = !partitioned[i]
			rearm()
			logf("partition r%d: %v", i, partitioned[i])
		case p < 72:
			if victim < 0 {
				victim = rng.Intn(3)
				rearm()
				logf("kill r%d at its next put or get", victim)
			}
		case p < 90:
			key, i := keys[rng.Intn(len(keys))], rng.Intn(3)
			// Corrupt only a copy that can be repaired: another live
			// replica must keep a valid one — two while a kill may still
			// take one of them.
			need := 2
			if victim >= 0 && !live(victim) {
				need = 1
			}
			if live(i) && validElsewhere(key, i) >= need && mems[i].Corrupt(key, rng.Intn(1<<16)) {
				logf("corrupt %s on r%d", key, i)
			}
		default:
			scanned, repaired, err := rep.ScrubOnce()
			logf("scrub: %d scanned, %d repaired, %v", scanned, repaired, err)
		}
	}

	reg.DisarmAll()
	if err := rep.Flush(); err != nil {
		logf("flush: %v", err)
	}
	scanned, repaired, err := rep.ScrubOnce()
	logf("final scrub: %d scanned, %d repaired, %v", scanned, repaired, err)
	if err != nil {
		return ops, fmt.Errorf("final scrub: %w", err)
	}
	var ref map[string][]byte
	refIdx := -1
	for i, m := range mems {
		if !live(i) {
			continue
		}
		held, err := memoryContents(m)
		if err != nil {
			return ops, fmt.Errorf("replica %d after the final scrub: %w", i, err)
		}
		if ref == nil {
			ref, refIdx = held, i
			continue
		}
		if len(held) != len(ref) {
			return ops, fmt.Errorf("replica %d holds %d objects, replica %d %d", i, len(held), refIdx, len(ref))
		}
		for key, blob := range ref {
			if !bytes.Equal(held[key], blob) {
				return ops, fmt.Errorf("replica %d and replica %d differ on %s", i, refIdx, key)
			}
		}
	}
	for _, key := range keys {
		if !acked[key] {
			continue
		}
		got, err := rep.Get(key)
		if err != nil || !sectionsEqual(got, want[key]) {
			return ops, fmt.Errorf("acked %s reads back as %v, %v", key, got, err)
		}
	}
	return ops, nil
}

// memoryContents is every object m holds, each verified.
func memoryContents(m *Memory) (map[string][]byte, error) {
	keys, err := m.List()
	if err != nil {
		return nil, err
	}
	held := make(map[string][]byte, len(keys))
	for _, key := range keys {
		if held[key], err = m.GetBlob(key); err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
	}
	return held, nil
}

func randomSections(rng *rand.Rand) []Section {
	sections := make([]Section, 1+rng.Intn(3))
	for i := range sections {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		sections[i] = Section{Name: fmt.Sprintf("v%d", i), Data: data}
	}
	return sections
}

func sectionsEqual(a, b []Section) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}
