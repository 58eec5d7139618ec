package addr

import "math/bits"

// Table maps 32-bit keys — addresses, domain or router IDs — to values, for
// state that is added and removed over and over: open addressing, linear
// probing, and a removal that shifts the keys after it back instead of
// leaving a marker. Its array depends only on the most keys it has held
// at once: it doubles when an insert would fill more than three quarters of
// it, and never otherwise. A Go map does not promise that: under insert and
// delete churn at a steady size, Go 1.24's swiss tables fill up with
// deleted slots, which it cannot rehash in place, and doubles them at a
// point its per-map hash seed decides, so that two identical runs can
// allocate differently.
//
// The hash has no seed: a table's layout, and the order Keys and Range
// visit it in, follow from the operations made on it alone. The zero value
// is an empty table. A Table is not safe for concurrent use.
type Table[K ~uint32, V any] struct {
	slots []slot[K, V]
	n     int
}

type slot[K ~uint32, V any] struct {
	key  K
	full bool
	val  V
}

// minTableSlots is the array a table's first key makes.
const minTableSlots = 8

// Len returns the number of keys held.
func (t *Table[K, V]) Len() int { return t.n }

// home is k's first slot in an array of size slots (a power of two):
// Fibonacci hashing, whose top bits spread consecutive keys evenly.
func home[K ~uint32](k K, size int) int {
	return int(uint32(k) * 0x9E3779B9 >> (32 - bits.TrailingZeros(uint(size))))
}

// find returns k's slot, or -1 when the table does not hold k.
func (t *Table[K, V]) find(k K) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := home(k, len(t.slots)); t.slots[i].full; i = (i + 1) & mask {
		if t.slots[i].key == k {
			return i
		}
	}
	return -1
}

// Get returns k's value; ok is false, and v zero, when k is absent.
func (t *Table[K, V]) Get(k K) (v V, ok bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	return v, false
}

// Has reports whether the table holds k.
func (t *Table[K, V]) Has(k K) bool { return t.find(k) >= 0 }

// Set maps k to v, replacing any value k had.
func (t *Table[K, V]) Set(k K, v V) {
	if i := t.find(k); i >= 0 {
		t.slots[i].val = v
		return
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.insert(k, v)
	t.n++
}

// insert puts k, absent and with room for it, in the first free slot from
// its home.
func (t *Table[K, V]) insert(k K, v V) {
	mask := len(t.slots) - 1
	i := home(k, len(t.slots))
	for t.slots[i].full {
		i = (i + 1) & mask
	}
	t.slots[i] = slot[K, V]{key: k, full: true, val: v}
}

// grow doubles the array and puts every key back.
func (t *Table[K, V]) grow() {
	old := t.slots
	t.slots = make([]slot[K, V], max(2*len(old), minTableSlots))
	for _, s := range old {
		if s.full {
			t.insert(s.key, s.val)
		}
	}
}

// Delete removes k, reporting whether the table held it. Each key after it
// in the same run of full slots that may sit nearer its home moves back, so
// that no lookup has to step over a hole.
func (t *Table[K, V]) Delete(k K) bool {
	i := t.find(k)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].full; j = (j + 1) & mask {
		// j's key may fill the hole at i when i lies between its home and
		// j, going round: its distance from home is at least j's from i.
		if (j-home(t.slots[j].key, len(t.slots)))&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = slot[K, V]{}
	t.n--
	return true
}

// Keys appends the keys held to dst, in slot order, and returns it.
func (t *Table[K, V]) Keys(dst []K) []K {
	for _, s := range t.slots {
		if s.full {
			dst = append(dst, s.key)
		}
	}
	return dst
}

// Range calls f on each key and its value, in slot order, until f returns
// false. f must not add or remove keys.
func (t *Table[K, V]) Range(f func(k K, v V) bool) {
	for _, s := range t.slots {
		if s.full && !f(s.key, s.val) {
			return
		}
	}
}
