package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mascbgmp/internal/wire"
)

// name is what the three obs enums (Kind, SpanName, Hist) share: a small
// integer whose String is its dotted name in the enum's table. Registry
// and tracer methods take the enum, so a string where a name belongs does
// not compile; strings appear only in renderings.
type name interface {
	~uint8
	fmt.Stringer
}

// scope is the (domain, router) pair every counter, histogram, flight
// ring and span is filed under. Router is zero for domain-level entries;
// both are zero for global ones.
type scope struct {
	Domain wire.DomainID
	Router wire.RouterID
}

// labels renders the scope's nonzero fields through format (a %s label
// name and a %d value), domain before router — the one place that order
// and those two label names are spelled.
func (s scope) labels(format string) []string {
	var out []string
	if s.Domain != 0 {
		out = append(out, fmt.Sprintf(format, "domain", s.Domain))
	}
	if s.Router != 0 {
		out = append(out, fmt.Sprintf(format, "router", s.Router))
	}
	return out
}

// String renders the scope as the suffix of a text line, e.g.
// " domain=2 router=21" (empty for the global scope).
func (s scope) String() string { return strings.Join(s.labels(" %s=%d"), "") }

func (s scope) compare(o scope) int {
	return cmp.Or(cmp.Compare(s.Domain, o.Domain), cmp.Compare(s.Router, o.Router))
}

// key identifies one counter or histogram: its enum value plus its scope.
type key[N name] struct {
	id N
	scope
}

// String renders the key deterministically, e.g.
// "bgmp.join domain=2 router=21".
func (k key[N]) String() string { return k.id.String() + k.scope.String() }

// compare orders keys by (name, domain, router) — by the rendered name,
// not the enum value, so sorted output does not move when an enum grows.
func (k key[N]) compare(o key[N]) int {
	return cmp.Or(strings.Compare(k.id.String(), o.id.String()), k.scope.compare(o.scope))
}

// sortedKeys returns m's keys in their compare order: the one ordering
// behind every obs rendering.
func sortedKeys[K interface {
	comparable
	compare(K) int
}, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, K.compare)
	return keys
}

// Counter is one atomic counter. The zero value is ready to use; a nil
// *Counter ignores Add so callers can hold one unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Counter returns kind's counter in one scope, creating it at zero on
// first use. The returned handle may be cached and incremented without
// locks. Safe on nil, and an undeclared kind has no counter (both return
// a nil counter).
func (o *Observer) Counter(kind Kind, domain wire.DomainID, router wire.RouterID) *Counter {
	if o == nil || !kind.valid() {
		return nil
	}
	k := key[Kind]{kind, scope{domain, router}}
	o.regMu.Lock()
	defer o.regMu.Unlock()
	c := o.counters[k]
	if c == nil {
		c = &Counter{}
		o.counters[k] = c
	}
	return c
}

// Snapshot captures every counter's and histogram's value at one instant.
// Snapshots are plain values: comparable with Diff, renderable with
// String/Totals/Prometheus.
type Snapshot struct {
	counts map[key[Kind]]uint64
	hists  map[key[Hist]]HistSnapshot
}

// Snapshot returns the current values of all registered counters and
// histograms. Safe on nil (returns an empty snapshot).
func (o *Observer) Snapshot() Snapshot {
	s := Snapshot{counts: map[key[Kind]]uint64{}, hists: map[key[Hist]]HistSnapshot{}}
	if o == nil {
		return s
	}
	o.regMu.Lock()
	defer o.regMu.Unlock()
	for k, c := range o.counters {
		s.counts[k] = c.v.Load()
	}
	for k, h := range o.hists {
		s.hists[k] = h.Snapshot()
	}
	return s
}

// Get returns the snapshotted value of kind in one scope.
func (s Snapshot) Get(kind Kind, domain wire.DomainID, router wire.RouterID) uint64 {
	return s.counts[key[Kind]{kind, scope{domain, router}}]
}

// Total sums the snapshotted value of kind across every scope.
func (s Snapshot) Total(kind Kind) uint64 {
	var n uint64
	for k, v := range s.counts {
		if k.id == kind {
			n += v
		}
	}
	return n
}

// Diff returns a snapshot holding, for every key in s, the increase since
// prev (keys that did not grow are omitted). Counters are monotonic, so a
// diff is itself a valid snapshot of "what happened in between".
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{counts: map[key[Kind]]uint64{}}
	for k, v := range s.counts {
		if dv := v - prev.counts[k]; dv > 0 {
			d.counts[k] = dv
		}
	}
	return d
}

// String renders every nonzero counter, one per line, sorted by
// (name, domain, router). The rendering is deterministic: equal snapshots
// produce identical strings.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, k := range sortedKeys(s.counts) {
		if v := s.counts[k]; v > 0 {
			fmt.Fprintf(&b, "%s %d\n", k, v)
		}
	}
	return b.String()
}

// NameTotals returns per-name totals across all scopes. The benchmark
// result model (internal/bench) serializes these alongside each suite's
// metrics; totals are order-independent sums, so they stay deterministic
// even when trials emit concurrently.
func (s Snapshot) NameTotals() map[string]uint64 {
	totals := make(map[string]uint64, len(s.counts))
	for k, v := range s.counts {
		totals[k.id.String()] += v
	}
	return totals
}

// Totals renders per-name totals across all scopes, one per line, sorted
// by name — the compact form the simulation commands print.
func (s Snapshot) Totals() string {
	totals := s.NameTotals()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if totals[n] > 0 {
			fmt.Fprintf(&b, "%-18s %d\n", n, totals[n])
		}
	}
	return b.String()
}
