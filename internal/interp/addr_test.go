package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: multi-dimensional array addressing is consistent — writing
// f(i,j,k) to u[i][j][k] for random dimensions and reading every element
// back reproduces the function, and the flattened traversal order matches
// row-major layout.
func TestQuickMultiDimAddressing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d1 := rng.Intn(3) + 2
		d2 := rng.Intn(3) + 2
		d3 := rng.Intn(3) + 2
		src := fmt.Sprintf(`int main() {
  int u[%d][%d][%d];
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++)
      for (int k = 0; k < %d; k++)
        u[i][j][k] = i * 10000 + j * 100 + k;
  int bad = 0;
  for (int i = 0; i < %d; i++)
    for (int j = 0; j < %d; j++)
      for (int k = 0; k < %d; k++)
        if (u[i][j][k] != i * 10000 + j * 100 + k) { bad = bad + 1; }
  print(bad);
  return 0;
}`, d1, d2, d3, d1, d2, d3, d1, d2, d3)
		mod, err := Compile(src)
		if err != nil {
			return false
		}
		out, err := RunProgram(mod)
		return err == nil && out == "0\n"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: passing any sub-array of a 2-D array to a function that
// mutates it through the decayed pointer affects exactly that row.
func TestQuickRowAliasing(t *testing.T) {
	f := func(rowSel uint8) bool {
		row := int(rowSel % 4)
		src := fmt.Sprintf(`
void bump(float r[], int n) {
  for (int i = 0; i < n; i++) { r[i] = r[i] + 100.0; }
}
int main() {
  float m[4][3];
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 3; j++)
      m[i][j] = i * 3 + j;
  bump(m[%d], 3);
  float others = 0.0;
  float target = 0.0;
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 3; j++) {
      if (i == %d) { target += m[i][j]; }
      else { others += m[i][j]; }
    }
  print(target, others);
  return 0;
}`, row, row)
		mod, err := Compile(src)
		if err != nil {
			return false
		}
		out, err := RunProgram(mod)
		if err != nil {
			return false
		}
		// target = sum(row elems) + 300; others = total - sum(row elems).
		rowSum := 0
		total := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				v := i*3 + j
				total += v
				if i == row {
					rowSum += v
				}
			}
		}
		want := fmt.Sprintf("%d.0 %d.0\n", rowSum+300, total-rowSum)
		return out == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestIntegerSemantics(t *testing.T) {
	// Signed division/remainder truncation, negative operands.
	out := run(t, `int main() {
  print(7 / 2, -7 / 2, 7 % 3, -7 % 3, 7 % -3);
  return 0;
}`)
	if out != "3 -3 1 -1 1\n" {
		t.Errorf("integer semantics = %q", out)
	}
}

func TestDeepRecursionStackDiscipline(t *testing.T) {
	// Each recursion level allocates locals; on return the stack pointer
	// must be fully restored so iterative reuse stays at one frame depth.
	recs, _, err := traceSource(`
int down(int n) {
  int local = n;
  if (n == 0) return 0;
  return local + down(n - 1);
}
int main() {
  print(down(20));
  print(down(20));
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// The two invocations must produce identical 'local' alloca addresses
	// at equal depths (deterministic reuse).
	var first, second []uint64
	for i := range recs {
		r := &recs[i]
		if r.Opcode != 26 || r.Result == nil || r.Result.Name != "local" {
			continue
		}
		if len(first) < 21 {
			first = append(first, r.Result.Value.Addr())
		} else {
			second = append(second, r.Result.Value.Addr())
		}
	}
	if len(first) != 21 || len(second) != 21 {
		t.Fatalf("alloca counts: %d, %d (want 21 each)", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("depth %d: address %#x vs %#x", i, first[i], second[i])
		}
	}
	// Distinct depths use distinct addresses.
	seen := map[uint64]bool{}
	for _, a := range first {
		if seen[a] {
			t.Errorf("address %#x reused within one recursion chain", a)
		}
		seen[a] = true
	}
}

func TestOutputFormattingOfKinds(t *testing.T) {
	out := run(t, `int main() {
  float f = 0.5;
  int i = -3;
  print(f, i, 1000000);
  return 0;
}`)
	if !strings.HasPrefix(out, "0.5 -3 1000000") {
		t.Errorf("output = %q", out)
	}
}
