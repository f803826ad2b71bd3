package autocheck

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sizeSlack is how far under its pin a package may shrink before the
// ledger must be lowered to it.
const sizeSlack = 50

// TestPackageSizes is the size ledger: testdata/sizes.txt pins each
// package of this module — each directory of .go files, nested modules
// such as benchmark/ left out — to its non-test line count, the newlines
// of its files that are not _test.go files, one "dir lines" line per
// package. A package over its pin fails, and so does one more than
// sizeSlack lines under it, until the ledger is lowered: every growth
// and every shrink shows in a diff of that file. A package the ledger
// lacks fails, and so does an entry whose package is gone.
func TestPackageSizes(t *testing.T) {
	got := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(data, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "sizes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		n, err := 0, error(nil)
		if len(f) == 2 {
			n, err = strconv.Atoi(f[1])
		}
		if len(f) != 2 || err != nil {
			t.Fatalf("testdata/sizes.txt:%d: %q is not \"dir lines\"", i+1, line)
		}
		pins[f[0]] = n
	}
	dirs := make([]string, 0, len(got))
	for dir := range got {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		n := got[dir]
		pin, ok := pins[dir]
		switch {
		case !ok:
			t.Errorf("%s: %d non-test lines and no pin: add \"%s %d\" to testdata/sizes.txt", dir, n, dir, n)
		case n > pin:
			t.Errorf("%s: %d non-test lines, over its pin of %d: raise the pin, and say why in CHANGES.md", dir, n, pin)
		case n < pin-sizeSlack:
			t.Errorf("%s: %d non-test lines, more than %d under its pin of %d: lower the pin to %d", dir, n, sizeSlack, pin, n)
		}
		delete(pins, dir)
	}
	for dir := range pins {
		t.Errorf("testdata/sizes.txt pins %s, which has no non-test Go files", dir)
	}
}
