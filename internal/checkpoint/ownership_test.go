package checkpoint

import (
	"fmt"
	"hash/crc32"
	"testing"

	"autocheck/internal/store"
	"autocheck/internal/trace"
)

// reader is a recorder that keeps every buffer a Get returns too.
type reader struct{ *recorder }

func (r reader) Get(key string) ([]store.Section, error) {
	sections, err := r.Backend.Get(key)
	for _, s := range sections {
		r.kept = append(r.kept, keptBuffer{s.Data, crc32.ChecksumIEEE(s.Data)})
	}
	return sections, err
}

// The reliability levels obey store.Backend's ownership rule: at L2,
// alone and in the stack NewContextStore builds (the levels under the
// incremental and async decorators), a run of checkpoints, retention
// prunes and restarts, some served by the partner copy, leaves every
// buffer handed to a Put or returned by a Get, above and below the
// levels, as it was on arrival.
func TestLevelsLeaveWhatCrossesThemReadOnly(t *testing.T) {
	for name, cfg := range map[string]store.Config{
		"L2":            {},
		"L2+incr+async": {Incremental: true, Async: true, Keyframe: 3},
	} {
		t.Run(name, func(t *testing.T) {
			mem := store.NewMemory()
			below := reader{&recorder{Backend: mem}}
			above := reader{&recorder{Backend: store.Decorate(newLevelBackend(below, L2), cfg)}}
			ctx := &Context{backend: above, level: L2}
			defer ctx.Close()
			ctx.Retain(4)
			ctx.Protect("x", 0x1000, 8*8)
			ctx.Protect("y", 0x2000, 64*8)
			m := machine(t)
			for i := int64(1); i <= 20; i++ {
				m.WriteCell(0x1000+8*uint64(i%8), trace.IntValue(i))
				if i%3 == 0 {
					m.WriteCell(0x2000+8*uint64(i%64), trace.FloatValue(float64(i)))
				}
				if err := ctx.Checkpoint(m, i); err != nil {
					t.Fatal(err)
				}
				if i%5 != 0 {
					continue
				}
				if err := ctx.Flush(); err != nil {
					t.Fatal(err)
				}
				if i%10 == 0 && !mem.Corrupt(fmt.Sprintf("ckpt-%06d.l1", i), 20) {
					t.Fatalf("no primary copy of checkpoint %d", i)
				}
				if got, err := ctx.Restart(machine(t), nil); err != nil || got != i {
					t.Fatalf("Restart = %d, %v; want %d", got, err, i)
				}
			}
			if n := above.rewritten() + below.rewritten(); n != 0 {
				t.Errorf("%d of %d buffers changed after crossing a layer", n, len(above.kept)+len(below.kept))
			}
		})
	}
}
