// Package wire is a lint fixture: map iteration order escaping a protocol
// package through appends, event emission, and encoder writes.
package wire

import (
	"bytes"
	"sort"

	"mascbgmp/internal/obs"
)

// Leaky lets map order escape three ways.
func Leaky(m map[string]int, ob *obs.Observer, buf *bytes.Buffer) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want: unsorted append
	}
	for k := range m {
		ob.Emit(obs.Event{}) // want: event emission
		buf.WriteString(k)   // want: encoder write
	}
	return keys
}

// SortedAfter is clean: the slice is sorted before it escapes.
func SortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Buckets is clean: the append target is declared inside the range, so
// iteration order cannot escape.
func Buckets(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}
