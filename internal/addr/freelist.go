package addr

import "slices"

// FreeList is a free list of T, last in first out, for state that churn
// builds and tears down over and over. It keeps everything given back, and
// its array grows only at a new extreme of the items out at once: a new
// high, when an item is made, or a new low once the list has been given
// anything. Between the two it holds at most made − low items, where low is
// the fewest that were out at once since its first Give, and it makes room
// for them when an item is made rather than when one comes back. A round of
// churn that repeats an earlier one therefore allocates nothing here, and
// state built up and never torn down reserves nothing. The zero value is an
// empty list. A FreeList is not safe for concurrent use.
type FreeList[T any] struct {
	items []T
	made  int32 // items made for the list: the most out at once
	low   int32 // the fewest out at once since the first Give
}

// Take pops an item. With none, ok is false: the caller makes one, and the
// list has room for it from now on.
func (l *FreeList[T]) Take() (x T, ok bool) {
	if n := len(l.items); n > 0 {
		x = l.items[n-1]
		var zero T
		l.items[n-1] = zero
		l.items = l.items[:n-1]
		return x, true
	}
	l.made++
	if l.items != nil {
		l.items = slices.Grow(l.items, int(l.made-l.low))
	}
	return x, false
}

// Give pushes x, which Take handed out or the caller made after Take said
// none was left. It grows the array only when fewer items are out than ever
// since the first Give.
func (l *FreeList[T]) Give(x T) {
	if l.items == nil {
		l.low = l.made
	}
	l.items = append(l.items, x)
	l.low = min(l.low, l.made-int32(len(l.items)))
}
