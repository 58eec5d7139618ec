// Package addr implements IPv4 multicast address and CIDR prefix arithmetic
// for the MASC/BGMP architecture.
//
// MASC allocates multicast address ranges as classless prefixes out of the
// IPv4 multicast space 224.0.0.0/4. The package provides a compact Prefix
// value type, containment/overlap tests, aggregation, splitting, and the
// free-space searches the MASC claim algorithm (paper §4.3.3) is built on.
//
// It is also the home of the two small containers that the membership
// paths of bgmp, migp and dataplane share, so that a join or leave repeated
// at a steady size allocates nothing: Table, keyed by a 32-bit value, and
// FreeList (DESIGN.md §17).
package addr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address held in host byte order (most significant byte is
// the first dotted quad). The zero value is 0.0.0.0.
type Addr uint32

// MakeAddr assembles an Addr from four dotted-quad bytes.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "224.0.1.0".
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: %q is not a dotted-quad IPv4 address", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("addr: %q is not a dotted-quad IPv4 address", s)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IsMulticast reports whether the address lies in 224.0.0.0/4.
func (a Addr) IsMulticast() bool { return a>>28 == 0xe }

// Prefix is a CIDR address range: all addresses sharing the first Len bits
// of Base. Bits of Base below the mask must be zero (see Canonical and
// Valid). The zero value is 0.0.0.0/0, the full IPv4 space.
type Prefix struct {
	Base Addr
	Len  int
}

// MulticastSpace is the entire IPv4 multicast address space, 224.0.0.0/4,
// from which top-level MASC domains claim.
var MulticastSpace = Prefix{Base: MakeAddr(224, 0, 0, 0), Len: 4}

// MustParsePrefix is ParsePrefix that panics on error; for tests and
// package-level variables with known-good literals.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation such as "224.0.1.0/24". The base address
// must have all host bits zero.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("addr: %q is not CIDR notation", s)
	}
	base, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("addr: bad mask length in %q", s)
	}
	p := Prefix{Base: base, Len: n}
	if !p.Valid() {
		return Prefix{}, fmt.Errorf("addr: %q has nonzero host bits", s)
	}
	return p, nil
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Base, p.Len) }

// Valid reports whether the mask length is in range and all host bits of the
// base address are zero.
func (p Prefix) Valid() bool {
	if p.Len < 0 || p.Len > 32 {
		return false
	}
	return p.Base&^p.mask() == 0
}

// Canonical returns p with host bits of the base address cleared and the
// mask length clamped to [0,32]. The result is always Valid.
func (p Prefix) Canonical() Prefix {
	if p.Len < 0 {
		p.Len = 0
	}
	if p.Len > 32 {
		p.Len = 32
	}
	p.Base &= p.mask()
	return p
}

func (p Prefix) mask() Addr {
	if p.Len == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Len))
}

// Size returns the number of addresses covered by the prefix. A /0 covers
// 2^32 addresses, which does not fit in uint32, so the result is uint64.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Len) }

// First returns the lowest address in the prefix (its base).
func (p Prefix) First() Addr { return p.Base }

// Last returns the highest address in the prefix.
func (p Prefix) Last() Addr { return p.Base | ^p.mask() }

// Contains reports whether address a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a&p.mask() == p.Base }

// ContainsPrefix reports whether q is entirely inside p (p covers q).
// A prefix contains itself.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Base)
}

// Overlaps reports whether p and q share any address. Because prefixes are
// aligned power-of-two ranges, overlap implies one contains the other.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// IsMulticast reports whether the entire prefix lies within 224.0.0.0/4.
func (p Prefix) IsMulticast() bool { return MulticastSpace.ContainsPrefix(p) }

// ErrCannotSplit is returned by Halves when a host prefix (/32) is split.
var ErrCannotSplit = errors.New("addr: cannot split a /32 prefix")

// Halves splits the prefix into its two equal halves, low then high.
func (p Prefix) Halves() (lo, hi Prefix, err error) {
	if p.Len >= 32 {
		return Prefix{}, Prefix{}, ErrCannotSplit
	}
	lo = Prefix{Base: p.Base, Len: p.Len + 1}
	hi = Prefix{Base: p.Base | Addr(1)<<(31-p.Len), Len: p.Len + 1}
	return lo, hi, nil
}

// Parent returns the prefix one bit shorter that covers p. Calling Parent on
// a /0 returns the /0 itself.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		return p
	}
	q := Prefix{Base: p.Base, Len: p.Len - 1}
	return q.Canonical()
}

// Sibling returns the other half of p's parent: the prefix of the same
// length with the last network bit flipped. The sibling of a /0 is itself.
func (p Prefix) Sibling() Prefix {
	if p.Len == 0 {
		return p
	}
	return Prefix{Base: p.Base ^ Addr(1)<<(32-p.Len), Len: p.Len}
}

// FirstSub returns the first (lowest) sub-prefix of the given mask length
// inside p. The claim algorithm picks "the first sub-prefix of the desired
// size within the chosen space" (paper §4.3.3).
func (p Prefix) FirstSub(length int) (Prefix, error) {
	if length < p.Len || length > 32 {
		return Prefix{}, fmt.Errorf("addr: no /%d inside %s", length, p)
	}
	return Prefix{Base: p.Base, Len: length}, nil
}

// Double returns the prefix covering p and its sibling — the allocation
// "doubling" step of the MASC expansion rules. Doubling fails on a /0.
func (p Prefix) Double() (Prefix, error) {
	if p.Len == 0 {
		return Prefix{}, errors.New("addr: cannot double a /0 prefix")
	}
	return p.Parent(), nil
}

// Aggregate combines p and q into their common parent when they are exact
// siblings (e.g. 128.8/16 + 128.9/16 → 128.8/15, the paper's CIDR example).
// ok is false when they cannot be aggregated.
func Aggregate(p, q Prefix) (agg Prefix, ok bool) {
	if p.Len != q.Len || p.Len == 0 {
		return Prefix{}, false
	}
	if p.Sibling() != q {
		return Prefix{}, false
	}
	return p.Parent(), true
}

// MaskLenFor returns the shortest mask length whose prefix covers at least n
// addresses: MaskLenFor(1024) == 22 (the paper's "/22" example). n must be
// at least 1; requests beyond 2^32 are unsatisfiable and return -1.
func MaskLenFor(n uint64) int {
	if n == 0 {
		n = 1
	}
	for l := 32; l >= 0; l-- {
		if (Prefix{Len: l}).Size() >= n {
			return l
		}
	}
	return -1
}

// Compare orders prefixes by base address, then by mask length (shorter
// first). It returns -1, 0, or +1.
func Compare(p, q Prefix) int {
	switch {
	case p.Base < q.Base:
		return -1
	case p.Base > q.Base:
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}
