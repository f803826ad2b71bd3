package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"testing"

	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// varSection encodes a variable section the way encodeCheckpoint does.
func varSection(base uint64, vals ...trace.Value) []byte {
	data := binary.LittleEndian.AppendUint64(nil, base)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(vals)))
	for _, v := range vals {
		data = encodeValue(data, v)
	}
	return data
}

func metaFor(iter int64) []byte {
	meta := binary.LittleEndian.AppendUint32(nil, magic)
	meta = binary.LittleEndian.AppendUint32(meta, version)
	return binary.LittleEndian.AppendUint64(meta, uint64(iter))
}

// declare overwrites the cell count a variable section declares.
func declare(section []byte, cells uint64) []byte {
	out := bytes.Clone(section)
	binary.LittleEndian.PutUint64(out[8:16], cells)
	return out
}

// A CRC-valid object whose variable section lies about its cell count (or
// carries a bad kind byte) is a decode error like any other: Restart falls
// back to the checkpoint before it, and the machine holds only that
// checkpoint's cells — including none of the hostile object's leading,
// well-formed variable.
func TestRestartSurvivesHostileCellCounts(t *testing.T) {
	good := varSection(0x1000, trace.IntValue(7), trace.FloatValue(2.5), trace.PtrValue(0xbeef))
	badKind := bytes.Clone(good)
	badKind[len(badKind)-cellBytes] = 9
	for name, hostile := range map[string][]byte{
		"negative count":        declare(good, 1<<63),
		"huge count":            declare(good, 1<<40),
		"count one over":        declare(good, 4),
		"count one under":       declare(good, 2),
		"section one short":     good[:len(good)-1],
		"section one long":      append(bytes.Clone(good), 0),
		"bad kind in last cell": badKind,
	} {
		t.Run(name, func(t *testing.T) {
			mem := store.NewMemory()
			ctx, err := NewContextBackend(mem, L1)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Protect("x", 0x1000, 24)
			m := machine(t)
			older := []trace.Value{trace.IntValue(1), trace.IntValue(2), trace.IntValue(3)}
			m.WriteRange(0x1000, older)
			if err := ctx.Checkpoint(m, 41); err != nil {
				t.Fatal(err)
			}
			if err := mem.Put("ckpt-000002.l1", []store.Section{
				{Name: metaSection, Data: metaFor(42)},
				{Name: "lead", Data: varSection(0x9000, trace.IntValue(99))},
				{Name: "x", Data: hostile},
			}); err != nil {
				t.Fatal(err)
			}
			fresh := machine(t)
			iter, err := ctx.Restart(fresh, nil)
			if err != nil || iter != 41 {
				t.Fatalf("Restart = %d, %v; want the older checkpoint's 41", iter, err)
			}
			want := map[uint64]trace.Value{0x1000: older[0], 0x1008: older[1], 0x1010: older[2]}
			if !maps.Equal(fresh.Mem, want) {
				t.Errorf("machine holds %v, want only the older checkpoint's %v", fresh.Mem, want)
			}
		})
	}
}

// The key format holds six digits. Checkpoint 1,000,000 would sort before
// 999,999 — Restart would return the older state for ever after and the
// retention policy would delete the newest object — so it is refused.
func TestCheckpointRefusesTheUnsortableKey(t *testing.T) {
	mem := store.NewMemory()
	last := fmt.Sprintf("%s%06d", keyPrefix, maxSeq)
	if err := mem.Put(last+primarySuffix, []store.Section{
		{Name: metaSection, Data: metaFor(77)},
		{Name: "x", Data: varSection(0x1000, trace.IntValue(5))},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContextBackend(mem, L1) // resumeSeq picks up 999999
	if err != nil {
		t.Fatal(err)
	}
	ctx.Retain(1)
	ctx.Protect("x", 0x1000, 8)
	m := machine(t)
	m.WriteCell(0x1000, trace.IntValue(6))
	if err := ctx.Checkpoint(m, 78); !errors.Is(err, ErrSequenceExhausted) {
		t.Fatalf("Checkpoint past the last key = %v, want ErrSequenceExhausted", err)
	}
	if keys, _ := mem.List(); len(keys) != 1 || keys[0] != last+primarySuffix {
		t.Errorf("store holds %v, want only %s", keys, last+primarySuffix)
	}
	if ctx.Count() != 0 || ctx.Pruned() != 0 {
		t.Errorf("Count = %d, Pruned = %d after a refused checkpoint", ctx.Count(), ctx.Pruned())
	}
	fresh := machine(t)
	if iter, err := ctx.Restart(fresh, nil); err != nil || iter != 77 || fresh.ReadRange(0x1000, 1)[0].Int() != 5 {
		t.Errorf("Restart = %d, %v; want checkpoint 999999's iteration 77", iter, err)
	}
}

// FuzzDecodeCheckpoint: whatever the sections hold, decoding ends in
// success or a clean error — no panic, nothing allocated from a count the
// object merely declares — and an error leaves the machine exactly as it
// was. On success the machine holds what the sections encode.
func FuzzDecodeCheckpoint(f *testing.F) {
	meta := metaFor(3)
	real := varSection(0x2000, trace.IntValue(-4), trace.FloatValue(0.25), trace.PtrValue(0x600010), trace.IntValue(0))
	other := varSection(0x3000, trace.FloatValue(1e300))
	f.Add(meta, real, other, false)
	f.Add(meta, real, other, true)
	for cut := 0; cut < len(real); cut += 7 {
		f.Add(meta, real[:cut], other, false)
	}
	f.Add(meta[:9], real, other, false)
	f.Add(meta, declare(real, 1<<63), other, false)
	f.Add(meta, declare(real, 1<<40), other, false)
	f.Add(meta, real, declare(other, 0), true)
	f.Fuzz(func(t *testing.T, meta, a, b []byte, skipB bool) {
		sections := []store.Section{
			{Name: metaSection, Data: meta},
			{Name: "a", Data: a},
			{Name: "~decorator", Data: []byte("not a variable")},
			{Name: "b", Data: b},
		}
		m := interp.New(&ir.Module{})
		m.WriteRange(0x2000, []trace.Value{trace.IntValue(11), trace.FloatValue(12)})
		before := maps.Clone(m.Mem)
		iter, err := decodeCheckpoint(m, sections, map[string]bool{"b": skipB})
		if err != nil {
			if !maps.Equal(m.Mem, before) {
				t.Fatalf("decode failed (%v) after writing the machine", err)
			}
			return
		}
		if iter != int64(binary.LittleEndian.Uint64(meta[8:16])) {
			t.Fatalf("iter = %d, not the metadata's", iter)
		}
		if cells := (len(a) + len(b)) / cellBytes; len(m.Mem) > len(before)+cells {
			t.Fatalf("%d cells in the machine from %d section bytes", len(m.Mem), len(a)+len(b))
		}
		// The last section written wins any overlap, so it must read back
		// as exactly the bytes that were decoded.
		last := a
		if !skipB {
			last = b
		}
		base, cells := binary.LittleEndian.Uint64(last[0:8]), int64(binary.LittleEndian.Uint64(last[8:16]))
		v := variable{Protected: Protected{Name: "last", Base: base, Cells: cells}}
		if got := v.encode(m); !bytes.Equal(got, last) {
			t.Fatalf("section does not read back:\n got %x\nwant %x", got, last)
		}
	})
}
