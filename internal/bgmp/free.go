package bgmp

import (
	"math/bits"
	"slices"

	"mascbgmp/internal/addr"
)

// Recycling. A join builds a (*,G) entry at every router it crosses and the
// prune that follows tears it down (§5.2), and hosts join and leave at will
// (§3), so a Component keeps what churn gives back — entries, children
// arrays, join and prune messages — for the next change to build from.
// Its rule is a pair of water marks: storage grows only when the state live
// at once passes the most ever held or, for a free list's own array, drops
// below the least held since the list was first given anything. So a round
// of churn that repeats an earlier one allocates nothing (DESIGN.md §17).

// takePtr pops a cleared *M off a free list, or makes one.
func takePtr[M any](l *addr.FreeList[*M]) *M {
	if m, ok := l.Take(); ok {
		return m
	}
	return new(M)
}

// childClass is the capacity an entry's children array has for n children:
// the entry's own one-element array up to one child, else the next power of
// two from n.
func childClass(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fitChildrenLocked moves e's children into an array of the class for n of
// them, when they are not in one, and gives the old array back: called
// before a child is added (n one more than now) and after children are
// removed (n as many as are left). Arrays are drawn by class, never carried
// by the entry they served: which entry a recycled one becomes depends on
// the order entries were freed in, and an array that came with it would
// make what a join allocates depend on that order too.
func (c *Component) fitChildrenLocked(e *entry, n int) {
	want := childClass(n)
	if cap(e.children) == want {
		return
	}
	var to []Target
	if want == 1 {
		to = e.one[:0]
	} else {
		k := bits.Len(uint(want)) - 2 // class 2 is arrays[0]
		if k >= len(c.arrays) {
			c.arrays = append(c.arrays, make([]addr.FreeList[[]Target], k+1-len(c.arrays))...)
		}
		var ok bool
		if to, ok = c.arrays[k].Take(); !ok {
			to = make([]Target, 0, want)
		}
	}
	to = append(to, e.children...)
	c.giveChildrenLocked(e)
	e.children = to
}

// giveChildrenLocked puts e's children array, unless it is the entry's own,
// back on its class's free list.
func (c *Component) giveChildrenLocked(e *entry) {
	if a := e.children; cap(a) > 1 {
		c.arrays[bits.Len(uint(cap(a)))-2].Give(a[:0])
	}
	e.children = nil
}

// addChildLocked adds t to e's children, in cmpTargets order.
func (c *Component) addChildLocked(e *entry, t Target) {
	i, ok := slices.BinarySearchFunc(e.children, t, cmpTargets)
	if ok {
		return
	}
	c.fitChildrenLocked(e, len(e.children)+1)
	e.children = slices.Insert(e.children, i, t) // within the array's room
	e.targetCache = nil
}

// removeChildLocked removes t from e's children.
func (c *Component) removeChildLocked(e *entry, t Target) {
	if i, ok := slices.BinarySearchFunc(e.children, t, cmpTargets); ok {
		e.children = slices.Delete(e.children, i, i+1)
		c.fitChildrenLocked(e, len(e.children))
		e.targetCache = nil
	}
}

// removeMIGPChildrenLocked drops every interior-side child: a source-specific
// prune from the domain interior means the interior as a whole gets S via
// another border now.
func (c *Component) removeMIGPChildrenLocked(e *entry) {
	e.children = slices.DeleteFunc(e.children, func(t Target) bool { return t.MIGP })
	c.fitChildrenLocked(e, len(e.children))
	e.targetCache = nil
}

// newEntryLocked returns an entry leading to up with no children, off the
// free list when it holds one.
func (c *Component) newEntryLocked(up upstream) *entry {
	e := takePtr(&c.free)
	e.upstream = up
	return e
}

// giveEntryLocked puts an entry no table holds any longer on the free list,
// cleared, and its children array on its class's. The target list is
// dropped, not kept: handleData reads it after unlocking.
func (c *Component) giveEntryLocked(e *entry) {
	c.giveChildrenLocked(e)
	*e = entry{}
	c.free.Give(e)
}
