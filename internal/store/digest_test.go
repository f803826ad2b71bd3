package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// kind2Golden is the sha256 of testdata/kind2: incrementalChain's six
// objects as the kind-2 writer sealed them, each file's name and length
// followed by its bytes, in key order. The files were written from the
// Memory under incrementalChain at commit b74851c, the last whose deltas
// were kind 2.
const kind2Golden = "399ee06ed9688c734eee93f704a3a8634425995af7949b52b73626833a643031"

// kind2Fixture returns the keys of testdata/kind2 in order and each
// one's sealed blob, after checking them against kind2Golden.
func kind2Fixture(tb testing.TB) ([]string, map[string][]byte) {
	tb.Helper()
	dir := filepath.Join("testdata", "kind2")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	h := sha256.New()
	var keys []string
	blobs := make(map[string][]byte)
	for _, e := range entries { // ReadDir sorts by name
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(blob))
		h.Write(blob)
		keys = append(keys, e.Name())
		blobs[e.Name()] = blob
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != kind2Golden {
		tb.Fatalf("testdata/kind2 hash = %s, want %s", got, kind2Golden)
	}
	return keys, blobs
}

// memoryOf loads sealed blobs into a fresh Memory as they are.
func memoryOf(tb testing.TB, blobs map[string][]byte) *Memory {
	tb.Helper()
	mem := NewMemory()
	for k, blob := range blobs {
		if err := mem.PutBlob(k, blob); err != nil {
			tb.Fatal(err)
		}
	}
	return mem
}

// A store whose deltas the kind-2 (FNV) writer recorded still restarts:
// every key reads back as incrementalChain put it, and a delta whose
// recorded digest no longer matches what lies beneath it is a
// *ChainBrokenError, as for kind 3.
func TestIncrementalReadsKind2Chain(t *testing.T) {
	keys, blobs := kind2Fixture(t)
	_, _, wantKeys, want := incrementalChain(t)
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("fixture keys %v, want %v", keys, wantKeys)
	}
	inc := NewIncremental(memoryOf(t, blobs), chainKeyframe, 64)
	for i, k := range keys {
		sections, err := DecodeSections(blobs[k])
		if err != nil {
			t.Fatal(err)
		}
		wantKind := kindDeltaFNV
		if i%chainKeyframe == 0 {
			wantKind = kindKeyframe
		}
		if kind, _, _, _, err := parseObject(sections); err != nil || kind != wantKind {
			t.Fatalf("fixture %s: kind %d, %v; want kind %d", k, kind, err, wantKind)
		}
		if got, err := inc.Get(k); err != nil || !reflect.DeepEqual(got, want[k]) {
			t.Errorf("Get(%s) = %v, %v; want what was put", k, got, err)
		}
	}

	for i, k := range keys {
		if i%chainKeyframe == 0 {
			continue
		}
		sections, err := DecodeSections(blobs[k])
		if err != nil {
			t.Fatal(err)
		}
		// The decoded sections share the fixture's bytes: flip a copy, so
		// every other key still reads its link intact.
		sections = copySections(sections)
		sections[0].Data[1+i%8] ^= 0x10 // one byte of the recorded digest
		mem := memoryOf(t, blobs)
		if err := mem.Put(k, sections); err != nil {
			t.Fatal(err)
		}
		_, err = NewIncremental(mem, chainKeyframe, 64).Get(k)
		var broken *ChainBrokenError
		if !errors.As(err, &broken) || broken.Key != k || broken.Link != keys[i-1] || broken.Err != nil {
			t.Errorf("Get(%s) with a flipped digest byte: %v, want the digest mismatch of %s over %s", k, err, k, keys[i-1])
		}
	}
}

// The writer's objects are the kind-2 fixture's, byte for byte, except the
// kind byte and the recorded digest of each delta: no object changed its
// length, and each fixture delta records the FNV digest of the fixture
// object beneath it.
func TestDeltaKindsDifferOnlyInDigest(t *testing.T) {
	keys, blobs := kind2Fixture(t)
	mem, _, _, _ := incrementalChain(t)
	var below []Section
	for i, k := range keys {
		old, err := DecodeSections(blobs[k])
		if err != nil {
			t.Fatal(err)
		}
		cur, err := mem.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if i%chainKeyframe != 0 {
			if cur[0].Data[0] != kindDelta {
				t.Fatalf("%s: writer's kind %d, want %d", k, cur[0].Data[0], kindDelta)
			}
			if got := binary.LittleEndian.Uint64(old[0].Data[1:9]); got != objectDigestFNV(below) {
				t.Errorf("%s: fixture digest %x, want FNV of the fixture object beneath it", k, got)
			}
			cur = copySections(cur) // a Get result is read-only
			copy(cur[0].Data[:9], old[0].Data[:9])
		}
		if blob := EncodeSections(cur); !bytes.Equal(blob, blobs[k]) {
			t.Errorf("%s: writer's object differs from the fixture beyond kind and digest", k)
		}
		below = old
	}
}

// framedStream is the byte stream objectDigest is defined over.
func framedStream(sections []Section) []byte {
	var b []byte
	for _, s := range sections {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Data)))
		b = append(b, s.Data...)
	}
	return b
}

// objectDigest is CRC-32 (IEEE) of the framed stream in the high half and
// CRC-32C in the low half, pinned by a known answer and checked against
// the stdlib checksums of the materialised stream.
func TestObjectDigestDefinition(t *testing.T) {
	arr := make([]byte, 256)
	for i := range arr {
		arr[i] = byte(i)
	}
	known := []Section{
		{Name: incrMetaSection, Data: []byte{kindKeyframe}},
		{Name: "x", Data: []byte("hello")},
		{Name: "arr", Data: arr},
	}
	const knownDigest = 0x95a8425ac15a8ad4
	if got := objectDigest(known); got != knownDigest {
		t.Errorf("objectDigest(known) = %#016x, want %#016x", got, uint64(knownDigest))
	}

	rng := rand.New(rand.NewSource(1))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for n := 0; n < 200; n++ {
		sections := make([]Section, rng.Intn(5))
		for i := range sections {
			name := make([]byte, rng.Intn(12))
			data := make([]byte, rng.Intn(3000))
			rng.Read(name)
			rng.Read(data)
			sections[i] = Section{Name: string(name), Data: data}
		}
		stream := framedStream(sections)
		want := uint64(crc32.ChecksumIEEE(stream))<<32 | uint64(crc32.Checksum(stream, castagnoli))
		if got := objectDigest(sections); got != want {
			t.Fatalf("objectDigest of %d sections = %#016x, stdlib over the stream %#016x", len(sections), got, want)
		}
	}
}

// The framing keeps apart section lists whose concatenated bytes agree.
func TestObjectDigestFraming(t *testing.T) {
	s := func(name, data string) Section { return Section{Name: name, Data: []byte(data)} }
	for name, pair := range map[string][2][]Section{
		"boundary":         {{s("ab", "c")}, {s("a", "bc")}},
		"empty name, data": {{s("", "x")}, {s("x", "")}},
		"swapped":          {{s("a", "1"), s("b", "2")}, {s("b", "2"), s("a", "1")}},
		"empty appended":   {{s("a", "1")}, {s("a", "1"), s("", "")}},
	} {
		if objectDigest(pair[0]) == objectDigest(pair[1]) {
			t.Errorf("%s: %v and %v share a digest", name, pair[0], pair[1])
		}
	}
}

func TestObjectDigestAllocatesNothing(t *testing.T) {
	sections := sampleSections(3)
	if n := testing.AllocsPerRun(100, func() { objectDigest(sections) }); n != 0 {
		t.Errorf("objectDigest allocated %v times per call", n)
	}
}
