package obs

import (
	"fmt"
	"strings"
	"sync"
)

// FlightRecorder keeps a bounded ring of the most recent events per
// (domain, router) scope. When a chaos fault or a test failure needs
// context, Dump renders the retained tail deterministically — the "what
// was each router doing just before it died" record the paper's failure
// analysis (§5.2 peering teardown) calls for.
//
// It is fed by subscription — ob.Subscribe(fr.Record) — and a nil
// *FlightRecorder ignores records.
type FlightRecorder struct {
	mu    sync.Mutex
	cap   int                   // guarded by mu
	seq   uint64                // global arrival order across all scopes; guarded by mu
	rings map[scope]*flightRing // guarded by mu
}

type flightRing struct {
	buf  []flightEntry // ring storage, len == cap once full
	next int           // index the next entry lands in
	full bool
}

type flightEntry struct {
	seq uint64
	ev  Event
}

// NewFlightRecorder returns a recorder retaining the last perScope events
// for each (domain, router) pair. perScope values below 1 become 64.
func NewFlightRecorder(perScope int) *FlightRecorder {
	if perScope < 1 {
		perScope = 64
	}
	return &FlightRecorder{cap: perScope, rings: map[scope]*flightRing{}}
}

// Record retains e in its scope's ring. Safe on nil and for concurrent
// use.
func (f *FlightRecorder) Record(e Event) {
	if f == nil {
		return
	}
	k := e.scope()
	f.mu.Lock()
	r := f.rings[k]
	if r == nil {
		r = &flightRing{buf: make([]flightEntry, f.cap)}
		f.rings[k] = r
	}
	f.seq++
	r.buf[r.next] = flightEntry{seq: f.seq, ev: e}
	r.next++
	if r.next == f.cap {
		r.next, r.full = 0, true
	}
	f.mu.Unlock()
}

// Dump renders every scope's retained events, scopes sorted by
// (domain, router) and events in arrival order, each line prefixed with
// its global sequence number. Deterministic for a given recording.
func (f *FlightRecorder) Dump() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	for _, k := range sortedKeys(f.rings) {
		r := f.rings[k]
		fmt.Fprintf(&b, "-- flight%s --\n", k)
		start, n := 0, r.next
		if r.full {
			start, n = r.next, f.cap
		}
		for i := 0; i < n; i++ {
			e := r.buf[(start+i)%f.cap]
			fmt.Fprintf(&b, "#%d %s\n", e.seq, e.ev)
		}
	}
	return b.String()
}
