package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzVerifySections: VerifySections is the only check between the wire
// and a blob backend's medium, so it must accept exactly the objects
// DecodeSections accepts, count their sections alike, and never panic.
// The seeds are FuzzDecodeSections': whole objects, objects cut short and
// resealed, and the hostile counts.
func FuzzVerifySections(f *testing.F) {
	for seed := byte(0); seed < 3; seed++ {
		blob := EncodeSections(sampleSections(seed))
		f.Add(blob, false)
		f.Add(blob[:len(blob)-4], true)
		for cut := 12; cut < 64; cut += 5 {
			f.Add(blob[:cut], true)
		}
	}
	f.Add(EncodeSections(nil), false)
	for _, blob := range hostileCounts() {
		f.Add(blob, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = sealObject(data)
		}
		n, verr := VerifySections(data)
		sections, derr := DecodeSections(data)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("VerifySections: %v, DecodeSections: %v", verr, derr)
		}
		if verr == nil && n != len(sections) {
			t.Fatalf("VerifySections counted %d sections, DecodeSections decoded %d", n, len(sections))
		}
	})
}

// TestVerifySectionsAllocatesNothing pins the gate at 0 allocs/op on an
// accepted object.
func TestVerifySectionsAllocatesNothing(t *testing.T) {
	blob := EncodeSections(sampleSections(4))
	if n, err := VerifySections(blob); err != nil || n != 3 {
		t.Fatalf("VerifySections = %d, %v; want 3 sections", n, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { VerifySections(blob) }); allocs != 0 {
		t.Errorf("VerifySections allocates %v times per call", allocs)
	}
}

// TestTrailingBytesRejected: an object ends at its last section. Bytes
// appended behind it and resealed would decode to the same sections yet
// compare unequal to the canonical encoding, so two copies of one object
// could differ byte for byte; both gates refuse them, as framing errors.
func TestTrailingBytesRejected(t *testing.T) {
	blob := EncodeSections([]Section{{Name: "a", Data: []byte("xyz")}})
	padded := sealObject(append(bytes.Clone(blob[:len(blob)-4]), 0, 0, 0, 0))
	if _, err := VerifySections(padded); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("VerifySections(padded) = %v, want a framing error", err)
	}
	if _, err := DecodeSections(padded); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeSections(padded) = %v, want a framing error", err)
	}
	// A blob store that verifies what it serves refuses it too.
	m := NewMemory()
	m.objects["k"] = padded
	if _, err := m.GetBlob("k"); err == nil {
		t.Error("Memory.GetBlob served an object with trailing bytes")
	}
	if _, err := m.Get("k"); err == nil {
		t.Error("Memory.Get decoded an object with trailing bytes")
	}
}

// TestDecodeInPlace: sections decoded in place alias the blob, each
// capped at its own end so an append copies instead of overwriting the
// next section, and an empty section is nil.
func TestDecodeInPlace(t *testing.T) {
	want := append(sampleSections(5), Section{Name: "empty"})
	blob := EncodeSections(want)
	got, err := DecodeSections(blob)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("in-place decode = %v, %v", got, err)
	}
	if &got[2].Data[0] != &blob[len(blob)-4-len(want[2].Data)-12-len("empty")] {
		t.Error("section data was copied, not aliased")
	}
	_ = append(got[1].Data, 0xEE)
	if !bytes.Equal(got[2].Data, want[2].Data) {
		t.Error("an append to one section overwrote the next")
	}
}

// TestMemoryCorruptIsCopyOnWrite: a blob GetBlob handed out keeps its
// bytes after Corrupt, while the next read sees the corruption.
func TestMemoryCorruptIsCopyOnWrite(t *testing.T) {
	m := NewMemory()
	if err := m.Put("k", sampleSections(7)); err != nil {
		t.Fatal(err)
	}
	held, err := m.GetBlob("k")
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(held)
	if !m.Corrupt("k", 20) {
		t.Fatal("Corrupt found no object")
	}
	if !bytes.Equal(held, before) {
		t.Error("Corrupt changed a blob a reader already held")
	}
	if _, err := m.GetBlob("k"); err == nil {
		t.Error("the corrupted object was served")
	}
}
