package dataplane

import "mascbgmp/internal/wire"

// Bitstring helpers: bit i lives in word i/64, position i%64. Domain IDs
// index bits directly, so the bitstring length scales with the highest
// member domain ID rather than the member count — the BIER trade of
// header bytes for per-group state.

// makeBits builds a bitstring with one bit set per domain in ds other than
// skip1 and skip2; nil when that leaves none.
func makeBits(ds []wire.DomainID, skip1, skip2 wire.DomainID) []uint64 {
	maxw := -1
	for _, d := range ds {
		if w := int(d / 64); w > maxw && d != skip1 && d != skip2 {
			maxw = w
		}
	}
	if maxw < 0 {
		return nil
	}
	out := make([]uint64, maxw+1)
	for _, d := range ds {
		if d != skip1 && d != skip2 {
			out[d/64] |= 1 << (d % 64)
		}
	}
	return out
}

// hasBit reports whether bit i is set.
func hasBit(b []uint64, i uint32) bool {
	w := int(i / 64)
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}

// trimBits drops trailing zero words so header accounting reflects the
// bytes a real encoding would carry.
func trimBits(b []uint64) []uint64 {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}
