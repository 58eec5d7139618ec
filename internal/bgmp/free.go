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
	to := e.one[:0]
	if want > 1 {
		to = c.takeArrayLocked(want)
	}
	to = append(to, e.children...)
	c.giveChildrenLocked(e)
	e.children = to
}

// takeArrayLocked returns an empty array of capacity class, a power of two
// from 2, off its class's free list, or makes one.
func (c *Component) takeArrayLocked(class int) []Target {
	if a, ok := c.arraysLocked(class).Take(); ok {
		return a
	}
	return make([]Target, 0, class)
}

// arraysLocked returns the free list of the arrays of capacity class.
func (c *Component) arraysLocked(class int) *addr.FreeList[[]Target] {
	k := bits.Len(uint(class)) - 2 // class 2 is arrays[0]
	if k >= len(c.arrays) {
		c.arrays = append(c.arrays, make([]addr.FreeList[[]Target], k+1-len(c.arrays))...)
	}
	return &c.arrays[k]
}

// giveChildrenLocked puts e's children array, unless it is the entry's own,
// back on its class's free list.
func (c *Component) giveChildrenLocked(e *entry) {
	if cap(e.children) > 1 {
		c.arraysLocked(cap(e.children)).Give(e.children[:0])
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
}

// removeChildLocked removes t from e's children.
func (c *Component) removeChildLocked(e *entry, t Target) {
	if i, ok := slices.BinarySearchFunc(e.children, t, cmpTargets); ok {
		e.children = slices.Delete(e.children, i, i+1)
		c.fitChildrenLocked(e, len(e.children))
	}
}

// removeMIGPChildrenLocked drops every interior-side child: a source-specific
// prune from the domain interior means the interior as a whole gets S via
// another border now.
func (c *Component) removeMIGPChildrenLocked(e *entry) {
	e.children = slices.DeleteFunc(e.children, func(t Target) bool { return t.MIGP })
	c.fitChildrenLocked(e, len(e.children))
}

// newEntryLocked returns an entry leading to up with no children, off the
// free list when it holds one.
func (c *Component) newEntryLocked(up upstream) *entry {
	e := takePtr(&c.free)
	e.upstream = up
	return e
}

// giveEntryLocked puts an entry no table holds any longer on the free list,
// cleared, and its children array on its class's.
func (c *Component) giveEntryLocked(e *entry) {
	c.giveChildrenLocked(e)
	*e = entry{}
	c.free.Give(e)
}
