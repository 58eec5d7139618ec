package bgp

import (
	"sort"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// rib holds one logical routing table's state: per-peer Adj-RIB-In, local
// originations, selected best routes, and per-peer Adj-RIB-Out bookkeeping
// (which prefixes we advertised, so withdraws can be generated).
type rib struct {
	local  map[addr.Prefix]wire.Route
	adjIn  map[addr.Prefix]map[wire.RouterID]wire.Route
	best   map[addr.Prefix]selected
	adjOut map[wire.RouterID]map[addr.Prefix]bool
	// lens[l] counts the prefixes of length l in best: the read index.
	// reselectLocked, the only writer of best, keeps it.
	lens [33]uint32
}

func newRIB() *rib {
	return &rib{
		local:  map[addr.Prefix]wire.Route{},
		adjIn:  map[addr.Prefix]map[wire.RouterID]wire.Route{},
		best:   map[addr.Prefix]selected{},
		adjOut: map[wire.RouterID]map[addr.Prefix]bool{},
	}
}

func (r *rib) adjInAdd(from wire.RouterID, rt wire.Route) {
	m := r.adjIn[rt.Prefix]
	if m == nil {
		m = map[wire.RouterID]wire.Route{}
		r.adjIn[rt.Prefix] = m
	}
	m[from] = rt.Clone()
}

func (r *rib) adjInRemove(from wire.RouterID, p addr.Prefix) bool {
	m := r.adjIn[p]
	if m == nil {
		return false
	}
	if _, ok := m[from]; !ok {
		return false
	}
	delete(m, from)
	if len(m) == 0 {
		delete(r.adjIn, p)
	}
	return true
}

// withdrawPeer removes all routes learned from a peer and returns the
// affected prefixes.
func (r *rib) withdrawPeer(id wire.RouterID) []addr.Prefix {
	var out []addr.Prefix
	for p, m := range r.adjIn {
		if _, ok := m[id]; ok {
			delete(m, id)
			if len(m) == 0 {
				delete(r.adjIn, p)
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return addr.Compare(out[i], out[j]) < 0 })
	return out
}

func (r *rib) adjOutAdd(id wire.RouterID, p addr.Prefix) {
	m := r.adjOut[id]
	if m == nil {
		m = map[addr.Prefix]bool{}
		r.adjOut[id] = m
	}
	m[p] = true
}

func (r *rib) adjOutHas(id wire.RouterID, p addr.Prefix) bool { return r.adjOut[id][p] }

func (r *rib) adjOutRemove(id wire.RouterID, p addr.Prefix) { delete(r.adjOut[id], p) }

// covering returns the selected route of the longest prefix of best, no
// longer than maxLen, that contains a — expired or not: the caller judges
// it and resumes below its length. It probes the populated lengths only
// (one to three per table for MASC ranges and M-RIB prefixes).
func (r *rib) covering(a addr.Addr, maxLen int) (selected, bool) {
	for l := maxLen; l >= 0; l-- {
		if r.lens[l] == 0 {
			continue
		}
		if sel, ok := r.best[addr.Prefix{Base: a, Len: l}.Canonical()]; ok {
			return sel, true
		}
	}
	return selected{}, false
}

// sortedPrefixes returns the best-route prefixes in deterministic order.
func (r *rib) sortedPrefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, len(r.best))
	for p := range r.best {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return addr.Compare(out[i], out[j]) < 0 })
	return out
}
