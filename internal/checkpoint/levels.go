package checkpoint

import (
	"slices"
	"strings"

	"autocheck/internal/store"
)

// levelBackend implements FTI's reliability levels as a decorator over a
// store.Backend. A logical checkpoint key fans out to physical objects:
//
//	key.l1  primary copy (all levels)
//	key.l2  partner copy (L2+); Get falls back to it when the primary
//	        fails verification
//	key.l3  XOR parity block (L3+), write-only in this reproduction
//
// L4's synchronous flush is a property of the underlying medium, so it is
// carried by the base backend's Sync option rather than a suffix.
type levelBackend struct {
	inner store.Backend
	level Level
}

const (
	primarySuffix = ".l1"
	partnerSuffix = ".l2"
	paritySuffix  = ".l3"
	paritySection = "~parity"
)

// copySuffixes are the physical copies of a logical key in the order the
// levels add them: L1 writes the first, L2 two, L3 and L4 all three.
var copySuffixes = []string{primarySuffix, partnerSuffix, paritySuffix}

// HasLevelKeys reports whether keys, a base backend's listing, hold the
// level-suffixed objects a Context writes.
func HasLevelKeys(keys []string) bool {
	return slices.ContainsFunc(keys, func(k string) bool { return strings.HasSuffix(k, primarySuffix) })
}

func newLevelBackend(inner store.Backend, level Level) *levelBackend {
	return &levelBackend{inner: inner, level: level}
}

// Put implements store.Backend.
func (l *levelBackend) Put(key string, sections []store.Section) error {
	if err := l.inner.Put(key+primarySuffix, sections); err != nil {
		return err
	}
	if l.level >= L2 {
		if err := l.inner.Put(key+partnerSuffix, sections); err != nil {
			return err
		}
	}
	if l.level >= L3 {
		parity := []store.Section{{Name: paritySection, Data: xorParity(store.EncodeSections(sections))}}
		if err := l.inner.Put(key+paritySuffix, parity); err != nil {
			return err
		}
	}
	return nil
}

// Get implements store.Backend: primary first, partner copy on any
// verification failure when the level wrote one.
func (l *levelBackend) Get(key string) ([]store.Section, error) {
	sections, err := l.inner.Get(key + primarySuffix)
	if err != nil && l.level >= L2 {
		if partner, perr := l.inner.Get(key + partnerSuffix); perr == nil {
			return partner, nil
		}
	}
	return sections, err
}

// List implements store.Backend, returning logical keys (objects with a
// primary copy).
func (l *levelBackend) List() ([]string, error) {
	keys, err := l.inner.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range keys {
		if strings.HasSuffix(k, primarySuffix) {
			out = append(out, strings.TrimSuffix(k, primarySuffix))
		}
	}
	return out, nil
}

// Delete implements store.Backend, removing every replica.
func (l *levelBackend) Delete(key string) error {
	err := l.inner.Delete(key + primarySuffix)
	for _, suffix := range copySuffixes[1:] {
		if derr := l.inner.Delete(key + suffix); derr != nil && derr != store.ErrNotFound && err == nil {
			err = derr
		}
	}
	return err
}

// Dependencies implements store.DependencyResolver: the logical keys whose
// copies any copy of key needs, so a retention prune over an incremental
// inner backend keeps the keyframe a retained checkpoint's chain starts
// from.
func (l *levelBackend) Dependencies(key string) ([]string, error) {
	var out []string
	for _, suffix := range copySuffixes[:min(int(l.level), len(copySuffixes))] {
		deps, err := store.DependenciesOf(l.inner, key+suffix)
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			if d = logicalKey(d); !slices.Contains(out, d) {
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// logicalKey maps the key of a physical copy back to its logical key.
func logicalKey(physical string) string {
	for _, suffix := range copySuffixes {
		if k, ok := strings.CutSuffix(physical, suffix); ok {
			return k
		}
	}
	return physical
}

// Stats implements store.Backend.
func (l *levelBackend) Stats() store.Stats { return l.inner.Stats() }

// Flush implements store.Backend.
func (l *levelBackend) Flush() error { return l.inner.Flush() }

// Close implements store.Backend.
func (l *levelBackend) Close() error { return l.inner.Close() }

// xorParity folds a checkpoint image into a parity block of 1/4 the size
// (stand-in for FTI's Reed-Solomon group encoding; enough to exercise the
// L3 code path and storage accounting).
func xorParity(data []byte) []byte {
	n := (len(data) + 3) / 4
	out := make([]byte, n)
	for i, b := range data {
		out[i%n] ^= b
	}
	return out
}
