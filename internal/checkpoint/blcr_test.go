package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"autocheck/internal/interp"
	"autocheck/internal/trace"
)

// FullRestore writes a full snapshot back into a machine's memory and
// returns the snapshot's iteration number. It is the oracle for the
// BLCR-like baseline Table IV sizes: a FullSnapshot must restore the
// whole image, or its byte count would not be a fair comparison.
func FullRestore(m *interp.Machine, snap []byte) (int64, error) {
	if len(snap) < 28 {
		return 0, errors.New("checkpoint: snapshot too short")
	}
	body, sum := snap[:len(snap)-4], binary.LittleEndian.Uint32(snap[len(snap)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, errors.New("checkpoint: snapshot CRC mismatch")
	}
	if binary.LittleEndian.Uint32(body[0:4]) != magic || binary.LittleEndian.Uint32(body[4:8]) != version+1000 {
		return 0, errors.New("checkpoint: bad snapshot header")
	}
	iter := int64(binary.LittleEndian.Uint64(body[8:16]))
	n := binary.LittleEndian.Uint64(body[16:24])
	rest := body[24:]
	for i := uint64(0); i < n; i++ {
		if len(rest) < 8 {
			return 0, errors.New("checkpoint: truncated snapshot")
		}
		addr := binary.LittleEndian.Uint64(rest[:8])
		rest = rest[8:]
		var v trace.Value
		var err error
		v, rest, err = decodeValue(rest)
		if err != nil {
			return 0, err
		}
		m.WriteCell(addr, v)
	}
	return iter, nil
}

// decodeValue reads a cell as encodeValue writes it and returns the rest
// of buf.
func decodeValue(buf []byte) (trace.Value, []byte, error) {
	if len(buf) < cellBytes {
		return trace.Value{}, nil, errors.New("checkpoint: truncated value")
	}
	if !validKind(buf[0]) {
		return trace.Value{}, nil, fmt.Errorf("checkpoint: bad value kind %d", buf[0])
	}
	return cellValue(buf), buf[cellBytes:], nil
}
