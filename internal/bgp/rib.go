package bgp

import (
	"slices"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// record is everything one table knows about one prefix: Adj-RIB-In and
// Adj-RIB-Out as views of one object, whose Loc-RIB entry, the selected
// route, is kept once, in rib.best. The write path reaches it with one
// probe of rib.recs and hands the pointer on; a record with nothing left
// in it is dropped by reselectLocked.
type record struct {
	prefix addr.Prefix
	// local is this speaker's own origination, nil when there is none.
	local *wire.Route
	// in holds the routes learned from peers, at most one per peer, in no
	// particular order: decide takes a minimum under a total order.
	in []peerRoute
	// out lists the peers the prefix is currently advertised to, so that a
	// withdrawal goes exactly where an announcement went.
	out []wire.RouterID
	// pass is the reselection pass that last visited the record: a prefix
	// named twice in one batch is decided once.
	pass uint64
}

// peerRoute is one Adj-RIB-In entry: a learned wire.Route less its
// prefix, which is the record's (route rebuilds it). A selected route is
// one too, less the prefix its key holds.
type peerRoute struct {
	from   wire.RouterID
	origin wire.DomainID
	expire uint64
	path   []wire.DomainID
}

// route is the learned route whole again, under the record's prefix p.
func (pr *peerRoute) route(p addr.Prefix) wire.Route {
	return wire.Route{Prefix: p, ASPath: pr.path, Origin: pr.origin, ExpireUnix: pr.expire}
}

// setIn stores peer from's route for the prefix, replacing its earlier one.
func (rec *record) setIn(from wire.RouterID, rt wire.Route) {
	pr := peerRoute{from, rt.Origin, rt.ExpireUnix, rt.ASPath}
	for i := range rec.in {
		if rec.in[i].from == from {
			rec.in[i] = pr
			return
		}
	}
	rec.in = append(rec.in, pr)
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

// empty reports whether the record holds nothing worth keeping. A selected
// route is one of the record's candidates, so it needs no term of its own.
func (rec *record) empty() bool {
	return rec.local == nil && len(rec.in) == 0 && len(rec.out) == 0
}

// rib holds one logical routing table: the per-prefix records the write
// path works on, and the by-value read index Lookup probes. Both maps are
// keyed by the prefix as one word (key): a uint64 key takes Go's fast map
// path, where a Prefix goes through a generated hash.
type rib struct {
	recs map[uint64]*record
	// best holds every record's selected route by value, its only copy, so
	// a lookup costs one probe and no pointer chase; the prefix is the key's.
	// reselectLocked is its only writer.
	best map[uint64]selected
	// lens[l] counts the prefixes of length l in best.
	lens [33]uint32
}

func newRIB() *rib {
	return &rib{
		recs: map[uint64]*record{},
		best: map[uint64]selected{},
	}
}

// key packs a canonical prefix into one word, Base<<8 | Len. Keys sort in
// addr.Compare's order: by base, then by length.
func key(p addr.Prefix) uint64 { return uint64(p.Base)<<8 | uint64(p.Len) }

// prefixOf unpacks a key.
func prefixOf(k uint64) addr.Prefix { return addr.Prefix{Base: addr.Addr(k >> 8), Len: int(k & 0xff)} }

// recordFor returns the record for p, creating it when absent.
func (r *rib) recordFor(p addr.Prefix) *record {
	rec := r.recs[key(p)]
	if rec == nil {
		rec = &record{prefix: p}
		r.recs[key(p)] = rec
	}
	return rec
}

// covering returns the longest prefix of best, no longer than maxLen, that
// contains a, with its selected route — expired or not: the caller judges
// it and resumes below its length. It probes the populated lengths only
// (one to three per table for MASC ranges and host prefixes).
func (r *rib) covering(a addr.Addr, maxLen int) (addr.Prefix, selected, bool) {
	for l := maxLen; l >= 0; l-- {
		if r.lens[l] == 0 {
			continue
		}
		p := addr.Prefix{Base: a, Len: l}.Canonical()
		if sel, ok := r.best[key(p)]; ok {
			return p, sel, true
		}
	}
	return addr.Prefix{}, selected{}, false
}

// sortedSelected returns the keys of the prefixes that have a selected
// route, in order.
func (r *rib) sortedSelected() []uint64 {
	out := make([]uint64, 0, len(r.best))
	for k := range r.best {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// sortRecords orders re-selection work by prefix so that update and
// notification order never depends on map iteration.
func sortRecords(recs []*record) {
	slices.SortFunc(recs, func(a, b *record) int { return addr.Compare(a.prefix, b.prefix) })
}
