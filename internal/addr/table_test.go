package addr

import (
	"math/rand"
	"slices"
	"testing"
)

// checkTable compares t with the map it should equal, and checks the
// invariant every lookup rests on: between a key's home and its slot no
// slot is free.
func checkTable(t *testing.T, tb *Table[Addr, int], want map[Addr]int) {
	t.Helper()
	if tb.Len() != len(want) {
		t.Fatalf("Len %d, want %d", tb.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := tb.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, got, ok, v)
		}
	}
	keys := tb.Keys(nil)
	if len(keys) != len(want) {
		t.Fatalf("Keys holds %d keys, want %d", len(keys), len(want))
	}
	mask := len(tb.slots) - 1
	for i, s := range tb.slots {
		if !s.full {
			continue
		}
		if _, ok := want[s.key]; !ok {
			t.Fatalf("slot %d holds %d, which was deleted", i, s.key)
		}
		for j := home(s.key, len(tb.slots)); j != i; j = (j + 1) & mask {
			if !tb.slots[j].full {
				t.Fatalf("key %d at slot %d: slot %d between it and its home is free", s.key, i, j)
			}
		}
	}
	if len(tb.slots) > 0 && 4*tb.n > 3*len(tb.slots) {
		t.Fatalf("%d keys in %d slots: past three quarters", tb.n, len(tb.slots))
	}
}

// wrapKeys returns n keys whose home in a 16-slot array is one of its last
// two slots, so that their run of full slots wraps round the array's end.
func wrapKeys(n int) []Addr {
	var keys []Addr
	for k := Addr(0); len(keys) < n; k++ {
		if home(k, 16) >= 14 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableMatchesMap drives a Table and a Go map with the same random
// Set, Get and Delete calls and compares them after every call: once over
// keys whose runs wrap round the end of a 16-slot array that never grows,
// and once over keys from a wider range while the table grows.
func TestTableMatchesMap(t *testing.T) {
	for _, c := range []struct {
		name string
		keys []Addr
		live int // the most keys held at once
		ops  int
	}{
		{"wrapping", wrapKeys(24), 12, 20000},
		{"growing", nil, 300, 5000},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			key := func() Addr {
				if c.keys != nil {
					return c.keys[r.Intn(len(c.keys))]
				}
				return Addr(r.Intn(1000))
			}
			var tb Table[Addr, int]
			want := map[Addr]int{}
			for i := 0; i < c.ops; i++ {
				k := key()
				switch op := r.Intn(3); {
				case op == 0 && len(want) < c.live:
					tb.Set(k, i)
					want[k] = i
				case op == 1:
					_, had := want[k]
					if got := tb.Delete(k); got != had {
						t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, had)
					}
					delete(want, k)
				default:
					v, ok := tb.Get(k)
					if w, had := want[k]; ok != had || v != w {
						t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", i, k, v, ok, w, had)
					}
				}
				checkTable(t, &tb, want)
			}
			if c.keys != nil && len(tb.slots) != 16 {
				t.Fatalf("the wrapping table has %d slots, want 16 throughout", len(tb.slots))
			}
			if c.keys == nil && len(tb.slots) < 256 {
				t.Fatalf("the growing table reached only %d slots; it should have doubled to 256 or more", len(tb.slots))
			}
		})
	}
}

// TestTableKeysAndRange checks that Keys and Range visit every key once,
// and that Range stops when told.
func TestTableKeysAndRange(t *testing.T) {
	var tb Table[Addr, int]
	for k := Addr(1); k <= 20; k++ {
		tb.Set(k, int(k)*10)
	}
	keys := tb.Keys(nil)
	slices.Sort(keys)
	for i, k := range keys {
		if k != Addr(i+1) {
			t.Fatalf("Keys = %v, want 1..20", keys)
		}
	}
	sum, visits := 0, 0
	tb.Range(func(k Addr, v int) bool { sum += v; return true })
	tb.Range(func(Addr, int) bool { visits++; return visits < 3 })
	if sum != 2100 || visits != 3 {
		t.Fatalf("Range summed %d and stopped after %d visits, want 2100 and 3", sum, visits)
	}
}

// TestTableChurnAllocatesNothing holds a table at a steady size while keys
// come and go: once it has held its most keys, inserts and deletes never
// allocate, however many keys pass through it.
func TestTableChurnAllocatesNothing(t *testing.T) {
	var tb Table[Addr, int]
	const live = 100
	for k := Addr(0); k < live; k++ {
		tb.Set(k, 0)
	}
	next := Addr(live)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			tb.Delete(next - live)
			tb.Set(next, int(next))
			next++
		}
	})
	if allocs != 0 || tb.Len() != live {
		t.Fatalf("%v allocations per 50 deletes and inserts, %d keys held; want 0 and %d", allocs, tb.Len(), live)
	}
}

// FuzzTable reads its input as a script of (op, key) pairs, op 0 a Set, 1 a
// Delete and 2 a Get, keys below 256, and checks the table against a Go map
// after each.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 2})
	var wrap []byte // keys whose runs wrap, set and then deleted one by one
	for _, k := range wrapKeys(5) {
		wrap = append(wrap, 0, byte(k))
	}
	for _, k := range wrapKeys(5) {
		wrap = append(wrap, 1, byte(k), 2, byte(k))
	}
	f.Add(wrap)
	seed := make([]byte, 0, 512)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 256; i++ {
		seed = append(seed, byte(r.Intn(3)), byte(r.Intn(64)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		var tb Table[Addr, int]
		want := map[Addr]int{}
		for i := 0; i+1 < len(script); i += 2 {
			k := Addr(script[i+1])
			switch script[i] % 3 {
			case 0:
				tb.Set(k, i)
				want[k] = i
			case 1:
				tb.Delete(k)
				delete(want, k)
			}
			checkTable(t, &tb, want)
		}
	})
}
