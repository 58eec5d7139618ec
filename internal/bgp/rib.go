package bgp

import (
	"slices"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// record is everything one table knows about one prefix: Adj-RIB-In,
// Loc-RIB and Adj-RIB-Out as views of one object. The write path reaches
// it with one probe of rib.recs and hands the pointer on; a record with
// nothing left in it is dropped by reselectLocked.
type record struct {
	prefix addr.Prefix
	// local is this speaker's own origination, nil when there is none.
	local *wire.Route
	// in holds the routes learned from peers, at most one per peer, in no
	// particular order: decide takes a minimum under a total order.
	in []peerRoute
	// sel is the selected route when hasSel; rib.best mirrors it by value.
	sel    selected
	hasSel bool
	// out lists the peers the prefix is currently advertised to, so that a
	// withdrawal goes exactly where an announcement went.
	out []wire.RouterID
	// pass is the reselection pass that last visited the record: a prefix
	// named twice in one batch is decided once.
	pass uint64
}

// peerRoute is one Adj-RIB-In entry.
type peerRoute struct {
	from  wire.RouterID
	route wire.Route
}

// setIn stores peer from's route for the prefix, replacing its earlier one.
func (rec *record) setIn(from wire.RouterID, rt wire.Route) {
	for i := range rec.in {
		if rec.in[i].from == from {
			rec.in[i].route = rt
			return
		}
	}
	rec.in = append(rec.in, peerRoute{from, rt})
}

// removeIn drops peer from's route and reports whether there was one.
func (rec *record) removeIn(from wire.RouterID) bool {
	for i := range rec.in {
		if rec.in[i].from == from {
			last := len(rec.in) - 1
			rec.in[i] = rec.in[last]
			rec.in[last] = peerRoute{}
			rec.in = rec.in[:last]
			return true
		}
	}
	return false
}

// advertise notes that the prefix went out to peer id.
func (rec *record) advertise(id wire.RouterID) {
	if !slices.Contains(rec.out, id) {
		rec.out = append(rec.out, id)
	}
}

// unadvertise forgets that the prefix went out to peer id and reports
// whether it had.
func (rec *record) unadvertise(id wire.RouterID) bool {
	i := slices.Index(rec.out, id)
	if i < 0 {
		return false
	}
	last := len(rec.out) - 1
	rec.out[i] = rec.out[last]
	rec.out = rec.out[:last]
	return true
}

// empty reports whether the record holds nothing worth keeping.
func (rec *record) empty() bool {
	return rec.local == nil && len(rec.in) == 0 && !rec.hasSel && len(rec.out) == 0
}

// rib holds one logical routing table: the per-prefix records the write
// path works on, and the by-value read index Lookup probes.
type rib struct {
	recs map[addr.Prefix]*record
	// best mirrors every record's selected route by value, so a lookup
	// costs one probe and no pointer chase. reselectLocked is its only
	// writer, at the moment it changes a record's sel.
	best map[addr.Prefix]selected
	// lens[l] counts the prefixes of length l in best.
	lens [33]uint32
}

func newRIB() *rib {
	return &rib{
		recs: map[addr.Prefix]*record{},
		best: map[addr.Prefix]selected{},
	}
}

// recordFor returns the record for p, creating it when absent.
func (r *rib) recordFor(p addr.Prefix) *record {
	rec := r.recs[p]
	if rec == nil {
		rec = &record{prefix: p}
		r.recs[p] = rec
	}
	return rec
}

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

// sortedSelected returns the records that have a selected route, by prefix.
func (r *rib) sortedSelected() []*record {
	out := make([]*record, 0, len(r.best))
	for _, rec := range r.recs {
		if rec.hasSel {
			out = append(out, rec)
		}
	}
	sortRecords(out)
	return out
}

// sortRecords orders re-selection work by prefix so that update and
// notification order never depends on map iteration.
func sortRecords(recs []*record) {
	slices.SortFunc(recs, func(a, b *record) int { return addr.Compare(a.prefix, b.prefix) })
}
