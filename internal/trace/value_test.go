package trace_test

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"autocheck/internal/checkpoint"
	"autocheck/internal/interp"
	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// A value is a kind byte and one 8-byte payload. Index and Size stay int
// (an Alloca's size in bits overflows int32 above 256 MiB), so an Operand
// stops at 56 bytes; Record is untouched.
func TestValueRepresentationSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	for name, c := range map[string]struct{ got, want uintptr }{
		"Value":   {unsafe.Sizeof(trace.Value{}), 16},
		"Operand": {unsafe.Sizeof(trace.Operand{}), 56},
		"Record":  {unsafe.Sizeof(trace.Record{}), 88},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", name, c.got, c.want)
		}
	}
}

// edgeBits are the payloads a codec is most likely to bend: zeros, signs,
// infinities, a NaN carrying a payload, the smallest subnormal, and the
// extremes of the integer and address ranges.
var edgeBits = []uint64{
	0,
	math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.Inf(1)),
	math.Float64bits(math.Inf(-1)),
	0x7ff8_0000_0bad_cafe, // NaN with a payload
	0xfff0_0000_0000_0001, // negative signalling NaN
	1,                     // the smallest subnormal
	math.Float64bits(math.MaxFloat64),
	1 << 63, // math.MinInt64
	math.MaxInt64,
	math.MaxUint64,
}

// randomValues returns every kind with every edge payload, then n values
// of random kind and payload.
func randomValues(rng *rand.Rand, n int) []trace.Value {
	kinds := []trace.ValueKind{trace.KindInt, trace.KindFloat, trace.KindPtr}
	var vals []trace.Value
	for _, k := range kinds {
		for _, b := range edgeBits {
			vals = append(vals, trace.BitsValue(k, b))
		}
	}
	for range n {
		vals = append(vals, trace.BitsValue(kinds[rng.Intn(len(kinds))], rng.Uint64()))
	}
	return vals
}

func sameBits(a, b trace.Value) bool { return a.Kind == b.Kind && a.Bits() == b.Bits() }

// valueRecords carries each value as an operand of its own record.
func valueRecords(vals []trace.Value) []trace.Record {
	recs := make([]trace.Record, len(vals))
	for i, v := range vals {
		recs[i] = trace.Record{Line: 1, Func: "f", Block: "b", Opcode: trace.OpStore, DynID: int64(i + 1),
			Ops: []trace.Operand{{Index: 1, Size: 64, Value: v, IsReg: true, Name: "v"}}}
	}
	return recs
}

// Property: the constructors, the ACTB codec and the checkpoint cell codec
// keep a value's kind and payload bit for bit. The text codec keeps both
// too, except that every NaN comes back as strconv's canonical NaN: the
// format prints "NaN" without its payload. That loss predates the compact
// value and is documented here, not fixed.
//
// Mutation-checked against an ACTB decoder that rebuilds a float as
// FloatValue(x+0) (−0 turns +0, the signalling NaN is quieted), and a
// checkpoint cell encoder that drops the payload's top byte.
func TestValuePayloadRoundTrips(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		vals := randomValues(rand.New(rand.NewSource(seed)), 200)
		for _, v := range vals {
			var back trace.Value
			switch v.Kind {
			case trace.KindInt:
				back = trace.IntValue(v.Int())
			case trace.KindFloat:
				back = trace.FloatValue(v.Float())
			default:
				back = trace.PtrValue(v.Addr())
			}
			if !sameBits(back, v) {
				t.Fatalf("seed %d: constructor of kind %d turns payload %#x into %#x", seed, v.Kind, v.Bits(), back.Bits())
			}
		}
		recs := valueRecords(vals)

		bin, err := trace.ParseBinary(trace.EncodeBinary(recs))
		if err != nil {
			t.Fatal(err)
		}
		text, err := trace.ParseBytes(trace.EncodeAll(recs))
		if err != nil {
			t.Fatal(err)
		}
		restored := restoreCells(t, vals)
		for i, v := range vals {
			if got := bin[i].Ops[0].Value; !sameBits(got, v) {
				t.Errorf("seed %d: ACTB turns kind %d payload %#x into kind %d payload %#x", seed, v.Kind, v.Bits(), got.Kind, got.Bits())
			}
			if got := restored[i]; !sameBits(got, v) {
				t.Errorf("seed %d: checkpoint cell turns kind %d payload %#x into kind %d payload %#x", seed, v.Kind, v.Bits(), got.Kind, got.Bits())
			}
			got := text[i].Ops[0].Value
			if v.Kind == trace.KindFloat && math.IsNaN(v.Float()) {
				if got.Kind != trace.KindFloat || got.Bits() != math.Float64bits(math.NaN()) {
					t.Errorf("seed %d: text turns NaN %#x into kind %d payload %#x, want the canonical NaN", seed, v.Bits(), got.Kind, got.Bits())
				}
			} else if !sameBits(got, v) {
				t.Errorf("seed %d: text turns kind %d payload %#x into kind %d payload %#x", seed, v.Kind, v.Bits(), got.Kind, got.Bits())
			}
		}
	}
}

// restoreCells writes vals to consecutive cells, checkpoints them through
// an in-memory store and restarts a fresh machine from it, returning the
// cells it restored.
func restoreCells(t *testing.T, vals []trace.Value) []trace.Value {
	t.Helper()
	const base = 0x10000
	mod, err := interp.Compile(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := checkpoint.NewContextBackend(store.NewMemory(), checkpoint.L1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ctx.Protect("v", base, int64(8*len(vals)))
	m := interp.New(mod)
	m.WriteRange(base, vals)
	if err := ctx.Checkpoint(m, 1); err != nil {
		t.Fatal(err)
	}
	fresh := interp.New(mod)
	if _, err := ctx.Restart(fresh, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Value, len(vals))
	for i := range out {
		out[i] = fresh.Mem[base+uint64(8*i)]
	}
	return out
}

// Equal compares floats as floats and everything else by kind and
// payload; an accessor answers only for its own kind.
//
// Mutation-checked against an Int/Float/Addr that ignores Kind and an
// Equal that compares float payloads bit for bit.
func TestValueEqualAndAccessors(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b trace.Value
		want bool
	}{
		{trace.IntValue(5), trace.IntValue(5), true},
		{trace.IntValue(5), trace.PtrValue(5), false},
		{trace.IntValue(5), trace.FloatValue(5), false},
		{trace.IntValue(-1), trace.PtrValue(math.MaxUint64), false},
		{trace.IntValue(int64(math.Float64bits(1))), trace.FloatValue(1), false},
		{trace.PtrValue(0xdead), trace.PtrValue(0xdead), true},
		{trace.PtrValue(0xdead), trace.PtrValue(0xbeef), false},
		{trace.FloatValue(0), trace.FloatValue(math.Copysign(0, -1)), true},
		{trace.FloatValue(nan), trace.FloatValue(nan), false},
		{trace.FloatValue(1.5), trace.FloatValue(1.5), true},
		{trace.Value{}, trace.IntValue(0), true},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v (kind %d).Equal(%v (kind %d)) = %v, want %v", c.a, c.a.Kind, c.b, c.b.Kind, got, c.want)
		}
	}
	for _, c := range []struct {
		v           trace.Value
		i           int64
		f           float64
		addr        uint64
		description string
	}{
		{trace.IntValue(5), 5, 0, 0, "IntValue(5)"},
		{trace.IntValue(math.MinInt64), math.MinInt64, 0, 0, "IntValue(MinInt64)"},
		{trace.FloatValue(2), 0, 2, 0, "FloatValue(2)"},
		{trace.FloatValue(math.Inf(-1)), 0, math.Inf(-1), 0, "FloatValue(-Inf)"},
		{trace.PtrValue(5), 0, 0, 5, "PtrValue(5)"},
		{trace.PtrValue(math.MaxUint64), 0, 0, math.MaxUint64, "PtrValue(MaxUint64)"},
	} {
		if c.v.Int() != c.i || c.v.Float() != c.f || c.v.Addr() != c.addr {
			t.Errorf("%s: Int, Float, Addr = %d, %v, %#x; want %d, %v, %#x",
				c.description, c.v.Int(), c.v.Float(), c.v.Addr(), c.i, c.f, c.addr)
		}
	}
}
