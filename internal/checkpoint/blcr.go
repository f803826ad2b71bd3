package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
	"sort"

	"autocheck/internal/interp"
)

// FullSnapshot is the BLCR-like baseline: a system-level checkpoint of the
// entire process image. Where BLCR dumps the address space of a Linux
// process, we dump every live cell of the simulated machine's memory —
// globals, the whole stack, everything — regardless of whether the
// application needs it for restart. Table IV compares its size against the
// AutoCheck-selected variable checkpoint.
func FullSnapshot(m *interp.Machine, iter int64) []byte {
	addrs := make([]uint64, 0, len(m.Mem))
	for a := range m.Mem {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	buf := binary.LittleEndian.AppendUint32(nil, magic)
	buf = binary.LittleEndian.AppendUint32(buf, version+1000) // full-image format
	buf = binary.LittleEndian.AppendUint64(buf, uint64(iter))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint64(buf, a)
		buf = encodeValue(buf, m.Mem[a])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}
