package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// chainKeyframe is the keyframe interval of incrementalChain: its six
// puts are two chains, a keyframe and three deltas, then a keyframe and
// one delta.
const chainKeyframe = 4

// incrementalChain puts a fixed keyframe and delta chain through an
// Incremental over a memory store and returns both, the keys in order,
// and what was put under each. Put 2 and put 4 change one chunk of "arr"
// (patched deltas); put 3 rewrites it (a full delta).
func incrementalChain(tb testing.TB) (*Memory, *Incremental, []string, map[string][]Section) {
	mem := NewMemory()
	inc := NewIncremental(mem, chainKeyframe, 64)
	arr := bytes.Repeat([]byte{7}, 1024)
	var keys []string
	want := make(map[string][]Section)
	for i := 1; i <= 6; i++ {
		if i == 3 {
			arr = bytes.Repeat([]byte{9}, 1024)
		} else {
			arr[(i%4)*200] = byte(i)
		}
		key := fmt.Sprintf("ckpt-%06d", i)
		sections := []Section{
			{Name: "~ckpt", Data: []byte{byte(i), 1, 2, 3}},
			{Name: "x", Data: []byte{byte(i % 2), 0xAA}},
			{Name: "arr", Data: bytes.Clone(arr)},
		}
		if err := inc.Put(key, copySections(sections)); err != nil {
			tb.Fatal(err)
		}
		keys = append(keys, key)
		want[key] = sections
	}
	return mem, inc, keys, want
}

// FuzzIncrementalGet: one stored object of a keyframe and delta chain is
// replaced by arbitrary bytes under a valid CRC (what a hostile writer, or
// rot the CRC cannot see, leaves behind). Get of every key then ends in
// exactly the sections that were put, or a clean error — a
// *ChainBrokenError, ErrCorrupt or another "store:" decode error — never a
// panic, never an allocation sized by an unvalidated count, and never
// other sections. Only the replaced key itself may read back as whatever
// it now holds: nothing vouches for an object's own payload but its CRC.
// Keys before it and in the other chain must read back intact.
//
// Seeds: the stored keyframe, full delta and patched delta, each put back
// unchanged; a delta of the retired kindDeltaV1; and the six kind-2
// objects of testdata/kind2, each in its own key's place, so a kindDeltaFNV
// link sits in a kindDelta chain.
//
// Mutation-checked: with Get's predecessor-digest check removed, a 30 s
// run fails in seconds on a later delta returning other sections.
func FuzzIncrementalGet(f *testing.F) {
	mem, _, keys, _ := incrementalChain(f)
	for i, want := range []struct {
		kind byte
		enc  byte // of the "arr" section
	}{{kindKeyframe, encFull}, {kindDelta, encPatch}, {kindDelta, encFull}} {
		obj, err := mem.Get(keys[i])
		if err != nil {
			f.Fatal(err)
		}
		kind, _, _, payload, err := parseObject(obj)
		if err != nil || kind != want.kind || payload[len(payload)-1].Data[0] != want.enc {
			f.Fatalf("seed %s is not the object it stands for: kind %d, %v", keys[i], kind, err)
		}
		blob := mem.objects[keys[i]]
		f.Add(uint8(i), blob[:len(blob)-4])
	}
	v1 := EncodeSections([]Section{
		{Name: incrMetaSection, Data: append([]byte{kindDeltaV1}, keys[0]...)},
		{Name: "x", Data: []byte{encFull, 1, 0xAA}},
	})
	f.Add(uint8(1), v1[:len(v1)-4])
	fixtureKeys, fixture := kind2Fixture(f)
	for i, k := range fixtureKeys {
		f.Add(uint8(i), fixture[k][:len(fixture[k])-4])
	}

	f.Fuzz(func(t *testing.T, victim uint8, body []byte) {
		mem, inc, keys, want := incrementalChain(t)
		v := int(victim) % len(keys)
		original := mem.objects[keys[v]]
		unchanged := bytes.Equal(body, original[:len(original)-4])
		mem.objects[keys[v]] = sealObject(body)

		got := make([][]Section, len(keys))
		errs := make([]error, len(keys))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, k := range keys {
			got[i], errs[i] = inc.Get(k)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
			t.Fatalf("six Gets over a %d-byte object allocated %d bytes", len(body), n)
		}
		for i, k := range keys {
			err := errs[i]
			var broken *ChainBrokenError
			if err != nil && !errors.As(err, &broken) && !errors.Is(err, ErrCorrupt) && !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("Get(%s): unclean error %v", k, err)
			}
			if err != nil && got[i] != nil {
				t.Fatalf("Get(%s): error %v with %d sections", k, err, len(got[i]))
			}
			// Only the replaced object, and the deltas of its chain that
			// descend from it, may fail; only the replaced object may read
			// back as something other than what was put.
			mayFail := !unchanged && i >= v && i/chainKeyframe == v/chainKeyframe
			if err != nil && !mayFail {
				t.Fatalf("Get(%s) failed though the replaced object is %s: %v", k, keys[v], err)
			}
			if err == nil && (i != v || unchanged) && !reflect.DeepEqual(got[i], want[k]) {
				t.Fatalf("Get(%s) returned other sections than were put (replaced object %s)", k, keys[v])
			}
		}
	})
}
