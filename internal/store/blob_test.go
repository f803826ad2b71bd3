package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autocheck/internal/faultinject"
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

// TestMemoryVerifiesAStoredBlobOnce: Memory.GetBlob verifies a stored blob
// on its first read and trusts it until the key's entry is replaced. The
// test breaks the read-only rule on purpose, flipping stored bytes in
// place, to see which reads verify: a trusted blob is served as it is —
// the rule the trust rests on — while each write of the entry makes the
// next read check again.
func TestMemoryVerifiesAStoredBlobOnce(t *testing.T) {
	m := NewMemory()
	sections := objectSections(8, 4<<10)
	flip := func() {
		blob := m.objects["k"]
		blob[len(blob)/2] ^= 0xFF
	}
	trusted := func() {
		t.Helper()
		if err := m.Put("k", sections); err != nil {
			t.Fatal(err)
		}
		if _, err := m.GetBlob("k"); err != nil {
			t.Fatalf("first GET = %v", err)
		}
		if !m.verified["k"] {
			t.Fatal("a verified blob is not remembered")
		}
	}

	trusted()
	flip()
	got, err := m.GetBlob("k")
	if err != nil || !bytes.Equal(got, m.objects["k"]) {
		t.Fatalf("GET of a trusted blob flipped in place = %v, want the stored bytes served", err)
	}
	if _, err := VerifySections(got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the flip did not break the blob: %v", err)
	}

	reg := faultinject.NewRegistry(7)
	for _, tc := range []struct {
		name    string
		replace func() error
		corrupt bool // the new entry is itself corrupt
	}{
		{"Put", func() error { return m.Put("k", sections) }, false},
		{"PutBlob", func() error { return m.PutBlob("k", EncodeSections(sections)) }, false},
		{"Delete then Put", func() error {
			if err := m.Delete("k"); err != nil {
				return err
			}
			return m.Put("k", sections)
		}, false},
		{"Corrupt", func() error {
			m.Corrupt("k", 100)
			return nil
		}, true},
		{"torn put", func() error {
			reg.Arm(faultinject.Failpoint{Site: SitePut, Action: faultinject.ActionTorn, Nth: 1})
			m.SetFaults(reg)
			defer m.SetFaults(nil)
			if err := m.Put("k", sections); !faultinject.IsTorn(err) {
				return fmt.Errorf("put = %v, want a torn write", err)
			}
			return nil
		}, true},
	} {
		trusted()
		if err := tc.replace(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.verified["k"] {
			t.Errorf("%s: the replaced entry is still trusted", tc.name)
		}
		if !tc.corrupt {
			flip() // only a read that verifies again sees it
		}
		if _, err := m.GetBlob("k"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: next GET = %v, want ErrCorrupt from a fresh verification", tc.name, err)
		}
	}
}

// objectSections is an object of n sections of size bytes each.
func objectSections(n, size int) []Section {
	sections := make([]Section, n)
	for i := range sections {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i*31 + j*7)
		}
		sections[i] = Section{Name: fmt.Sprintf("s%d", i), Data: data}
	}
	return sections
}
