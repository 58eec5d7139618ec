package bgp

import (
	"cmp"
	"slices"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// record is everything one table knows about one prefix: Adj-RIB-In and
// Adj-RIB-Out as views of one object, and the Loc-RIB entry, the selected
// route, as a pick of one of its own candidates. The write path reaches it
// with one probe of rib.recs and hands the pointer on; a record with
// nothing left in it is dropped by reselectLocked.
type record struct {
	// key is the record's prefix as one word (key, prefixOf).
	key uint64
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
	// sel names the selected route, as the last reselection decided it.
	sel pick
}

// A pick names a record's selected route without copying it: the
// origination, one in entry, or, from a write that replaced or removed
// that entry or origination until the reselection that decides the record
// again, the copy of it the write saved (Speaker.saved).
type pick struct {
	idx  int32 // into in (pickIn) or Speaker.saved (pickSaved)
	kind uint8
}

const (
	pickNone  uint8 = iota // no selected route
	pickLocal              // the origination
	pickIn                 // in[idx]
	pickSaved              // Speaker.saved[idx]
)

func (rec *record) prefix() addr.Prefix { return prefixOf(rec.key) }

// chosen is the route pk names, reading a saved copy from saved; pk is not
// pickNone.
func (rec *record) chosen(pk pick, saved []selected) selected {
	switch pk.kind {
	case pickLocal:
		l := rec.local
		return selected{peerRoute{origin: l.Origin, expire: l.ExpireUnix, path: l.ASPath}, true}
	case pickIn:
		return selected{peerRoute: rec.in[pk.idx]}
	}
	return saved[pk.idx]
}

// saveIfSelected saves the selected route to saved when it is the one pk
// names, which a write is about to replace or remove: the reselection that
// follows compares against it, and a covering test made before it decides
// the record reads it.
func (rec *record) saveIfSelected(pk pick, saved *[]selected) {
	if rec.sel == pk {
		*saved = append(*saved, rec.chosen(pk, nil))
		rec.sel = pick{idx: int32(len(*saved) - 1), kind: pickSaved}
	}
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

// setIn stores peer from's route for the prefix, replacing its earlier one
// (saved to saved first if it is the selected route).
func (rec *record) setIn(from wire.RouterID, rt wire.Route, saved *[]selected) {
	pr := peerRoute{from, rt.Origin, rt.ExpireUnix, rt.ASPath}
	for i := range rec.in {
		if rec.in[i].from == from {
			rec.saveIfSelected(pick{int32(i), pickIn}, saved)
			rec.in[i] = pr
			return
		}
	}
	rec.in = append(rec.in, pr)
}

// removeIn drops peer from's route and reports whether there was one. The
// selected route is saved to saved first if it is the one dropped, and
// followed if it is the last entry, which takes the dropped one's place.
func (rec *record) removeIn(from wire.RouterID, saved *[]selected) bool {
	for i := range rec.in {
		if rec.in[i].from == from {
			last := len(rec.in) - 1
			rec.saveIfSelected(pick{int32(i), pickIn}, saved)
			if rec.sel == (pick{int32(last), pickIn}) {
				rec.sel.idx = int32(i)
			}
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

// rib holds one logical routing table: one record per prefix, keyed by the
// prefix as one word (key): a uint64 key takes Go's fast map path, where a
// Prefix goes through a generated hash. Lookup probes the same map.
type rib struct {
	recs map[uint64]*record
	// lens[l] counts the records of prefix length l that have a selected
	// route.
	lens [33]uint32
}

func newRIB() *rib { return &rib{recs: map[uint64]*record{}} }

// key packs a canonical prefix into one word, Base<<8 | Len. Keys sort in
// addr.Compare's order: by base, then by length.
func key(p addr.Prefix) uint64 { return uint64(p.Base)<<8 | uint64(p.Len) }

// prefixOf unpacks a key.
func prefixOf(k uint64) addr.Prefix { return addr.Prefix{Base: addr.Addr(k >> 8), Len: int(k & 0xff)} }

// recordFor returns the record for p, creating it when absent.
func (r *rib) recordFor(p addr.Prefix) *record {
	rec := r.recs[key(p)]
	if rec == nil {
		rec = &record{key: key(p)}
		r.recs[key(p)] = rec
	}
	return rec
}

// covering returns the record of the longest prefix, no longer than
// maxLen, that contains a and has a selected route, with that route read
// through saved — expired or not: the caller judges it and resumes below
// its length. It probes the populated lengths only (one to three per table
// for MASC ranges and host prefixes).
func (r *rib) covering(a addr.Addr, maxLen int, saved []selected) (*record, selected, bool) {
	for l := maxLen; l >= 0; l-- {
		if r.lens[l] == 0 {
			continue
		}
		rec := r.recs[key(addr.Prefix{Base: a, Len: l}.Canonical())]
		if rec != nil && rec.sel.kind != pickNone {
			return rec, rec.chosen(rec.sel, saved), true
		}
	}
	return nil, selected{}, false
}

// sortedSelected returns the records that have a selected route, in
// prefix order.
func (r *rib) sortedSelected() []*record {
	out := make([]*record, 0, len(r.recs))
	for _, rec := range r.recs {
		if rec.sel.kind != pickNone {
			out = append(out, rec)
		}
	}
	sortRecords(out)
	return out
}

// sortRecords orders re-selection work by prefix so that update and
// notification order never depends on map iteration.
func sortRecords(recs []*record) {
	slices.SortFunc(recs, func(a, b *record) int { return cmp.Compare(a.key, b.key) })
}
