package addr

import "testing"

// A free list's array grows only at a new extreme of the items out at once:
// a round of churn that repeats an earlier one allocates nothing, items
// made after the list was first given one have room before they come back,
// and items built up and never given back reserve no room at all.
func TestFreeListGrowsOnlyAtNewExtremes(t *testing.T) {
	var l FreeList[*int]
	out := make([]*int, 0, 256)
	take := func(n int) {
		for range n {
			x, ok := l.Take()
			if !ok {
				x = new(int)
			}
			out = append(out, x)
		}
	}
	give := func(n int) {
		for range n {
			l.Give(out[len(out)-1])
			out = out[:len(out)-1]
		}
	}

	take(100) // standing state, never given back
	if l.items != nil || l.made != 100 {
		t.Fatalf("a list never given anything: room for %d, %d made; want none and 100", cap(l.items), l.made)
	}
	round := func() { take(30); give(40); take(10) } // 100 → 130 → 90 → 100
	round()
	if l.made != 130 || l.low != 90 || len(l.items) != 30 {
		t.Fatalf("after a round: %d made, %d out at least, %d free; want 130, 90, 30", l.made, l.low, len(l.items))
	}
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Errorf("a repeated round allocates %v", n)
	}

	// A higher peak makes 70 items, and the list makes room for them as they
	// are made: giving everything back down to the old low grows nothing.
	take(100) // 200 out, the most yet
	if l.made != 200 {
		t.Fatalf("%d made after a peak of 200", l.made)
	}
	room := cap(l.items)
	give(110) // back to 90, the low
	if cap(l.items) != room {
		t.Errorf("giving back down to the low grew the array from room for %d to %d", room, cap(l.items))
	}
	if room >= int(l.made) || room < int(l.made-l.low) {
		t.Errorf("room for %d items, %d made, %d out at least: want room for the swing of %d, not for every item",
			room, l.made, l.low, l.made-l.low)
	}
}
