// Package bgp implements the BGP-lite speaker the MASC/BGMP architecture
// relies on (paper §2, §4.2).
//
// The speaker maintains three logical routing tables selected by
// wire.Table — the unicast RIB, the M-RIB (multicast RPF view), and the
// G-RIB (group routes injected by MASC, binding each multicast prefix to
// its root domain). It runs the usual BGP machinery over them: per-peer
// Adj-RIB-In, a decision process, Adj-RIB-Out with selective export
// (routing policy), AS-path loop suppression, and CIDR aggregation of group
// routes (a parent domain does not propagate children's routes that its own
// allocation covers).
//
// The speaker is a pure state machine: inbound updates arrive through
// HandleUpdate and outbound updates leave through the Send callback, so the
// same code runs over real TCP peerings (cmd/bgmpd), in-memory pipes, and
// direct function calls in tests.
package bgp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// Neighbor describes a configured BGP peer.
type Neighbor struct {
	Router wire.RouterID
	Domain wire.DomainID
	// Internal marks a peer in the same domain (the full iBGP-like mesh
	// among a domain's border routers).
	Internal bool
}

// ExportFilter decides whether a route may be advertised to a neighbor;
// rt.ASPath is the stored slice, read-only. Filters implement the paper's multicast routing policies: "a provider
// domain could restrict the use of its resources by advertising only the
// group routes pertaining to its claimed address ranges and ... those
// received from its customer domains" (§4.2).
type ExportFilter func(to Neighbor, table wire.Table, rt wire.Route) bool

// ExportAll permits every route.
func ExportAll(Neighbor, wire.Table, wire.Route) bool { return true }

// Config parameterizes a Speaker.
type Config struct {
	Router wire.RouterID
	Domain wire.DomainID
	// Clock drives route-lifetime expiry; defaults to the real clock.
	Clock simclock.Clock
	// Send transmits an update to a configured neighbor. It is called
	// without internal locks held and must not block indefinitely. The
	// update's AS paths are shared with the RIB and with the updates to
	// other neighbors: read-only.
	Send func(to wire.RouterID, u *wire.Update)
	// Export filters external advertisements; nil means ExportAll.
	Export ExportFilter
	// AggregateCovered, when true, suppresses external advertisement of
	// routes covered by one of this speaker's own originations — the
	// G-RIB aggregation of paper §4.3.2. (Enabled in all deployments;
	// exposed for the ablation benchmark.)
	AggregateCovered bool
	// OnBestChange, if set, is called after the best route for a prefix
	// changes, with lost=true when the prefix became unreachable. Called
	// without locks held. ctx is the causal trace context of whatever
	// triggered the change (an inbound update's span, a neighbor removal);
	// zero when untraced.
	OnBestChange func(table wire.Table, prefix addr.Prefix, lost bool, ctx wire.TraceContext)
	// Obs observes route advertisements, withdrawals, and best-route
	// changes, scoped by Domain/Router. Nil disables observation.
	Obs *obs.Observer
}

// Entry is a selected best route as exposed to lookups.
type Entry struct {
	// Route is the stored route, not a copy: Route.ASPath is read-only.
	// (Stored routes are replaced whole, never written into; Table's
	// snapshot copies.)
	Route wire.Route
	// NextHop is the peer to forward toward the route's origin; for
	// locally originated routes it is the speaker's own router ID.
	NextHop wire.RouterID
	// Local marks a route this speaker originated.
	Local bool
}

// Speaker is a BGP-lite speaker for one border router. Create with New;
// safe for concurrent use.
type Speaker struct {
	cfg Config

	mu        sync.Mutex
	neighbors []Neighbor                     // guarded by mu; ascending router ID
	tables    [wire.NumTables]*rib           // guarded by mu; indexed by wire.Table
	pass      uint64                         // guarded by mu; the current reselection pass
	pend      [][wire.NumTables]*wire.Update // guarded by mu; updates a pass has built, by neighbor index
	npend     int                            // guarded by mu; non-nil cells of pend
	// gens counts, per table, the changes reselectLocked (its only writer,
	// under mu) makes to a record's sel; Generation reads it without mu.
	gens [wire.NumTables]atomic.Uint64
}

// New returns a configured Speaker.
func New(cfg Config) *Speaker {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Export == nil {
		cfg.Export = ExportAll
	}
	var tables [wire.NumTables]*rib
	for t := range tables {
		tables[t] = newRIB()
	}
	return &Speaker{cfg: cfg, tables: tables}
}

// Router returns the speaker's router ID.
func (s *Speaker) Router() wire.RouterID { return s.cfg.Router }

// Domain returns the speaker's domain.
func (s *Speaker) Domain() wire.DomainID { return s.cfg.Domain }

// neighborIndexLocked returns id's position in s.neighbors, or where it
// would be inserted. Caller holds s.mu.
func (s *Speaker) neighborIndexLocked(id wire.RouterID) (int, bool) {
	return slices.BinarySearchFunc(s.neighbors, id, func(n Neighbor, id wire.RouterID) int {
		return cmp.Compare(n.Router, id)
	})
}

// AddNeighbor registers a peer. Call Sync afterwards — once the remote side
// has also registered this speaker — to run the initial route exchange.
func (s *Speaker) AddNeighbor(n Neighbor) {
	s.mu.Lock()
	if i, ok := s.neighborIndexLocked(n.Router); ok {
		s.neighbors[i] = n
	} else {
		s.neighbors = slices.Insert(s.neighbors, i, n)
	}
	s.mu.Unlock()
}

// Sync sends the neighbor the exportable contents of every table: the
// initial route exchange after session establishment.
func (s *Speaker) Sync(to wire.RouterID) {
	s.mu.Lock()
	i, ok := s.neighborIndexLocked(to)
	if !ok {
		s.mu.Unlock()
		return
	}
	n := s.neighbors[i]
	var out []outUpdate
	for t, r := range s.tables {
		table := wire.Table(t)
		recs := r.sortedSelected()
		routes := make([]wire.Route, 0, len(recs))
		for _, rec := range recs {
			ad := s.advertLocked(table, rec.sel)
			if rt, ok := s.exportLocked(n, &ad); ok {
				routes = append(routes, rt)
				rec.advertise(n.Router)
			}
		}
		if len(routes) > 0 {
			out = append(out, outUpdate{to: n.Router, u: &wire.Update{Table: table, Routes: routes}})
		}
	}
	s.mu.Unlock()
	s.deliver(out)
}

// RemoveNeighbor drops a peer and every route learned from it. ctx is the
// causal context of the teardown (the session-down span); the withdrawal
// reselection runs as a child span and the resulting updates carry it.
func (s *Speaker) RemoveNeighbor(id wire.RouterID, ctx wire.TraceContext) {
	sp := s.cfg.Obs.Tracer().BeginChild(ctx, obs.SpanBGPWithdraw,
		obs.Event{Domain: s.cfg.Domain, Router: s.cfg.Router, Peer: id})
	defer sp.End()
	s.mu.Lock()
	if i, ok := s.neighborIndexLocked(id); ok {
		s.neighbors = slices.Delete(s.neighbors, i, i+1)
	}
	var notes []note
	for t, r := range s.tables {
		var changed []*record
		for _, rec := range r.recs {
			rec.unadvertise(id)
			if rec.removeIn(id) {
				changed = append(changed, rec)
			}
		}
		sortRecords(changed)
		notes = s.reselectLocked(wire.Table(t), changed, sp.Context(), notes)
	}
	out := s.flushLocked()
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// Neighbors returns the configured neighbors sorted by router ID.
func (s *Speaker) Neighbors() []Neighbor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(make([]Neighbor, 0, len(s.neighbors)), s.neighbors...)
}

// Originate injects a locally sourced route (for the G-RIB: a MASC-won
// address range) and advertises it to peers.
func (s *Speaker) Originate(table wire.Table, rt wire.Route) {
	rt.Prefix = rt.Prefix.Canonical()
	s.mu.Lock()
	rec := s.tables[table].recordFor(rt.Prefix)
	rec.local = &rt
	notes := s.reselectLocked(table, []*record{rec}, wire.TraceContext{}, nil)
	out := s.flushLocked()
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// WithdrawLocal removes a locally originated route.
func (s *Speaker) WithdrawLocal(table wire.Table, p addr.Prefix) {
	s.mu.Lock()
	// A prefix never heard of still gets its record, for the length of the
	// pass: the reselection reports it lost, as it always has.
	rec := s.tables[table].recordFor(p.Canonical())
	rec.local = nil
	notes := s.reselectLocked(table, []*record{rec}, wire.TraceContext{}, nil)
	out := s.flushLocked()
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// HandleUpdate processes an update received from peer `from`. Unknown
// peers, unknown tables and looped routes are ignored. A traced update
// (stamped by the sender's reselection) gets a per-hop child span, and any
// updates this reselection propagates carry that span onward.
func (s *Speaker) HandleUpdate(from wire.RouterID, u *wire.Update) {
	sp := s.cfg.Obs.Tracer().BeginChild(wire.ContextOf(u), obs.SpanBGPUpdate,
		obs.Event{Domain: s.cfg.Domain, Router: s.cfg.Router, Peer: from, Table: u.Table})
	defer sp.End()
	s.mu.Lock()
	if _, ok := s.neighborIndexLocked(from); !ok || int(u.Table) >= wire.NumTables {
		s.mu.Unlock()
		return
	}
	r := s.tables[u.Table]
	changed := make([]*record, 0, len(u.Withdrawn)+len(u.Routes))
	for _, p := range u.Withdrawn {
		if rec := r.recs[p.Canonical()]; rec != nil && rec.removeIn(from) {
			changed = append(changed, rec)
		}
	}
	for _, rt := range u.Routes {
		rt.Prefix = rt.Prefix.Canonical()
		if rt.HasLoop(s.cfg.Domain) {
			continue // AS-path loop: a route that already traversed us
		}
		if s.expired(rt) {
			continue
		}
		rec := r.recordFor(rt.Prefix)
		rec.setIn(from, rt.Clone())
		changed = append(changed, rec)
	}
	notes := s.reselectLocked(u.Table, changed, sp.Context(), nil)
	out := s.flushLocked()
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// Lookup performs a longest-prefix-match in a table. ok is false when no
// covering unexpired route exists.
func (s *Speaker) Lookup(table wire.Table, a addr.Addr) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := s.longestMatchLocked(s.tables[table], a)
	if !ok {
		return Entry{}, false
	}
	return s.entryOf(best), true
}

// longestMatchLocked returns the selected route of the most specific
// unexpired prefix of r covering a: the one match behind Lookup and
// LookupBackup, so a backup is always the runner-up of the very prefix the
// primary matched. An expired more-specific falls through to the route
// that covers it. Caller holds s.mu.
func (s *Speaker) longestMatchLocked(r *rib, a addr.Addr) (selected, bool) {
	for l := 32; l >= 0; {
		sel, ok := r.covering(a, l)
		if !ok {
			break
		}
		if !s.expired(sel.route) {
			return sel, true
		}
		l = sel.route.Prefix.Len - 1
	}
	return selected{}, false
}

// LookupBackup longest-prefix-matches like Lookup, then returns the
// runner-up candidate for the matched prefix — the route the decision
// process would select if the current best's source vanished. BGMP uses it
// to precompute a backup parent target per (*,G) so a peer failure can
// switch the tree over without waiting for the withdrawal to propagate.
// ok is false when the best route has no independent alternative.
func (s *Speaker) LookupBackup(table wire.Table, a addr.Addr) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.tables[table]
	cur, ok := s.longestMatchLocked(r, a)
	if !ok {
		return Entry{}, false
	}
	second, ok := s.decide(r.recs[cur.route.Prefix], &cur)
	if !ok {
		return Entry{}, false
	}
	return s.entryOf(second), true
}

// LookupPrefix returns the best route for an exact prefix.
func (s *Speaker) LookupPrefix(table wire.Table, p addr.Prefix) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sel, ok := s.tables[table].best[p.Canonical()]
	if !ok || s.expired(sel.route) {
		return Entry{}, false
	}
	return s.entryOf(sel), true
}

// Generation counts the changes to a table's selected routes. An answer
// Lookup gave for a route with no lifetime is the one it gives now for as
// long as the count read before that Lookup still stands: a change bumps it
// inside the critical section it is made in, so Generation takes no lock.
func (s *Speaker) Generation(table wire.Table) uint64 {
	return s.gens[table].Load()
}

// Table returns a snapshot of a table's best routes sorted by prefix; the
// paper's "G-RIB size" is len(Table(wire.TableGRIB)).
func (s *Speaker) Table(table wire.Table) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.tables[table].sortedSelected()
	out := make([]Entry, 0, len(recs))
	for _, rec := range recs {
		sel := rec.sel
		if s.expired(sel.route) {
			continue
		}
		sel.route = sel.route.Clone()
		out = append(out, s.entryOf(sel))
	}
	return out
}

// Sweep removes expired routes from every table, withdrawing them from
// peers. Call it periodically (MASC lifetimes are long, so hourly is fine).
func (s *Speaker) Sweep() {
	s.mu.Lock()
	var notes []note
	for t, r := range s.tables {
		var changed []*record
		for _, rec := range r.recs {
			if s.dropExpiredLocked(rec) {
				changed = append(changed, rec)
			}
		}
		sortRecords(changed)
		notes = s.reselectLocked(wire.Table(t), changed, wire.TraceContext{}, notes)
	}
	out := s.flushLocked()
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// dropExpiredLocked removes rec's expired origination and learned routes
// and reports whether it removed any. Caller holds s.mu.
func (s *Speaker) dropExpiredLocked(rec *record) bool {
	dropped := false
	if rec.local != nil && s.expired(*rec.local) {
		rec.local = nil
		dropped = true
	}
	kept := rec.in[:0]
	for _, pr := range rec.in {
		if !s.expired(pr.route) {
			kept = append(kept, pr)
		}
	}
	if len(kept) != len(rec.in) {
		clear(rec.in[len(kept):])
		rec.in = kept
		dropped = true
	}
	return dropped
}

func (s *Speaker) expired(rt wire.Route) bool {
	return rt.ExpireUnix != 0 && uint64(s.cfg.Clock.Now().Unix()) >= rt.ExpireUnix
}

func (s *Speaker) entryOf(sel selected) Entry {
	e := Entry{Route: sel.route, NextHop: sel.from, Local: sel.local}
	if sel.local {
		e.NextHop = s.cfg.Router
	}
	return e
}

type outUpdate struct {
	to wire.RouterID
	u  *wire.Update
}

type note struct {
	table  wire.Table
	prefix addr.Prefix
	lost   bool
	ctx    wire.TraceContext
}

func (s *Speaker) deliver(out []outUpdate) {
	if s.cfg.Send == nil {
		return
	}
	for _, o := range out {
		s.cfg.Send(o.to, o.u)
		if s.cfg.Obs == nil {
			continue
		}
		for _, rt := range o.u.Routes {
			s.cfg.Obs.Emit(obs.Event{Kind: obs.BGPAnnounce, Domain: s.cfg.Domain,
				Router: s.cfg.Router, Peer: o.to, Table: o.u.Table, Prefix: rt.Prefix})
		}
		for _, p := range o.u.Withdrawn {
			s.cfg.Obs.Emit(obs.Event{Kind: obs.BGPWithdraw, Domain: s.cfg.Domain,
				Router: s.cfg.Router, Peer: o.to, Table: o.u.Table, Prefix: p})
		}
	}
}

func (s *Speaker) notify(notes []note) {
	if s.cfg.Obs != nil {
		for _, n := range notes {
			s.cfg.Obs.Emit(obs.Event{Kind: obs.BGPBestChange, Domain: s.cfg.Domain,
				Router: s.cfg.Router, Table: n.table, Prefix: n.prefix})
		}
	}
	if s.cfg.OnBestChange == nil {
		return
	}
	for _, n := range notes {
		s.cfg.OnBestChange(n.table, n.prefix, n.lost, n.ctx)
	}
}

// reselectLocked re-runs the decision process for the given records of one
// table, in order, and queues the resulting advertisements and withdrawals
// in s.pend for flushLocked to collect; a pass over several tables calls it
// once per table, ascending. Updates and the best-change notes, appended to
// notes, are stamped with ctx so downstream speakers and tree repair
// inherit the cause. A record left with nothing in it is dropped from the
// table. Caller holds s.mu.
func (s *Speaker) reselectLocked(table wire.Table, changed []*record, ctx wire.TraceContext, notes []note) []note {
	if len(s.pend) != len(s.neighbors) {
		s.pend = make([][wire.NumTables]*wire.Update, len(s.neighbors))
	}
	s.pass++
	r := s.tables[table]
	for i, rec := range changed {
		if rec.pass == s.pass {
			continue
		}
		rec.pass = s.pass
		left := len(changed) - i // what this pass can still add to any one list
		newSel, hasNew := s.decide(rec, nil)
		hadOld := rec.hasSel
		if hadOld && hasNew && rec.sel.equal(newSel) {
			continue
		}
		switch {
		case hasNew:
			r.best[rec.prefix] = newSel
			if !hadOld {
				r.lens[rec.prefix.Len]++
			}
		case hadOld:
			delete(r.best, rec.prefix)
			r.lens[rec.prefix.Len]--
		}
		rec.sel, rec.hasSel = newSel, hasNew
		s.gens[table].Add(1)
		if notes == nil {
			notes = make([]note, 0, left)
		}
		notes = append(notes, note{table, rec.prefix, !hasNew, ctx})
		// Advertise or withdraw to each neighbor.
		var ad advert
		if hasNew {
			ad = s.advertLocked(table, newSel)
		}
		for k, n := range s.neighbors {
			if hasNew {
				if rt, ok := s.exportLocked(n, &ad); ok {
					rec.advertise(n.Router)
					u := s.pendingLocked(k, table, ctx)
					if u.Routes == nil {
						u.Routes = make([]wire.Route, 0, left)
					}
					u.Routes = append(u.Routes, rt)
					continue
				}
			}
			if rec.unadvertise(n.Router) {
				u := s.pendingLocked(k, table, ctx)
				if u.Withdrawn == nil {
					u.Withdrawn = make([]addr.Prefix, 0, left)
				}
				u.Withdrawn = append(u.Withdrawn, rec.prefix)
			}
		}
		if rec.empty() {
			delete(r.recs, rec.prefix)
		}
	}
	return notes
}

// pendingLocked returns the update this pass is building for the k-th
// neighbor and table, starting it when there is none. Caller holds s.mu.
func (s *Speaker) pendingLocked(k int, table wire.Table, ctx wire.TraceContext) *wire.Update {
	u := s.pend[k][table]
	if u == nil {
		u = &wire.Update{Table: table}
		wire.Stamp(u, ctx)
		s.pend[k][table] = u
		s.npend++
	}
	return u
}

// flushLocked collects the updates queued since the last flush, ordered by
// neighbor router ID and then table, and leaves s.pend empty for the next
// pass. Caller holds s.mu.
func (s *Speaker) flushLocked() []outUpdate {
	if s.npend == 0 {
		return nil
	}
	out := make([]outUpdate, 0, s.npend)
	for k := range s.pend {
		for t, u := range s.pend[k] {
			if u != nil {
				out = append(out, outUpdate{to: s.neighbors[k].Router, u: u})
				s.pend[k][t] = nil
			}
		}
	}
	s.npend = 0
	return out
}

// decide runs the decision process for one prefix: a local origination
// wins; otherwise the shortest AS path, tie-broken by lowest advertising
// router ID. Expired candidates are skipped, and so is the source of skip
// when non-nil — passing the current best yields the runner-up. The minimum
// is taken in one pass in slice order: better is a total order whose last
// key, from, is unique per entry, so the result does not depend on the
// order of rec.in. A nil record has no candidates.
func (s *Speaker) decide(rec *record, skip *selected) (selected, bool) {
	if rec == nil {
		return selected{}, false
	}
	if rec.local != nil && !s.expired(*rec.local) && !(skip != nil && skip.local) {
		return selected{route: *rec.local, local: true}, true
	}
	best := -1
	for i := range rec.in {
		pr := &rec.in[i]
		if s.expired(pr.route) || (skip != nil && !skip.local && pr.from == skip.from) {
			continue
		}
		if best < 0 || pr.better(&rec.in[best]) {
			best = i
		}
	}
	if best < 0 {
		return selected{}, false
	}
	return selected{route: rec.in[best].route, from: rec.in[best].from}, true
}

// better is the route preference order among learned routes: the shorter
// AS path, then the lower advertising router ID.
func (a *peerRoute) better(b *peerRoute) bool {
	if len(a.route.ASPath) != len(b.route.ASPath) {
		return len(a.route.ASPath) < len(b.route.ASPath)
	}
	return a.from < b.from
}

// advert is one selected route on its way out: the parts of the export
// decision that do not depend on the neighbor, worked out at most once
// however many neighbors are asked.
type advert struct {
	table wire.Table
	sel   selected
	// dead: expired, goes to no one.
	dead bool
	// fromInternal: learned over the internal mesh, stays off it.
	fromInternal bool
	// covered is the §4.3.2 test, valid once coveredKnown.
	covered, coveredKnown bool
	// path is sel's AS path with the own domain prepended, built for the
	// first external neighbor that takes the route and shared by the rest.
	path []wire.DomainID
}

// advertLocked starts the export decision for sel. Caller holds s.mu.
func (s *Speaker) advertLocked(table wire.Table, sel selected) advert {
	ad := advert{table: table, sel: sel, dead: s.expired(sel.route)}
	if !sel.local {
		if i, ok := s.neighborIndexLocked(sel.from); ok {
			ad.fromInternal = s.neighbors[i].Internal
		}
	}
	return ad
}

// exportLocked applies the advertisement rules for neighbor n and returns
// the route as it should appear on the wire. The route shares its AS path
// with the RIB (internal neighbors) or with the other external neighbors'
// copies: stored paths are never written into. Caller holds s.mu.
func (s *Speaker) exportLocked(n Neighbor, ad *advert) (wire.Route, bool) {
	if ad.dead {
		return wire.Route{}, false
	}
	// Never echo a route to the peer it was learned from.
	if !ad.sel.local && ad.sel.from == n.Router {
		return wire.Route{}, false
	}
	if n.Internal {
		// iBGP split horizon over the full mesh: only locally originated
		// and externally learned routes go to internal peers.
		if ad.fromInternal {
			return wire.Route{}, false
		}
		return ad.sel.route, true
	}
	// External export.
	if s.cfg.AggregateCovered {
		if !ad.coveredKnown {
			ad.covered, ad.coveredKnown = s.coveredByOwnOriginationLocked(ad.table, ad.sel), true
		}
		if ad.covered {
			return wire.Route{}, false
		}
	}
	rt := ad.sel.route
	if !s.cfg.Export(n, ad.table, rt) {
		return wire.Route{}, false
	}
	if ad.path == nil {
		ad.path = make([]wire.DomainID, 0, 1+len(rt.ASPath))
		ad.path = append(append(ad.path, s.cfg.Domain), rt.ASPath...)
	}
	rt.ASPath = ad.path
	if rt.HasLoop(n.Domain) {
		return wire.Route{}, false // would be rejected anyway
	}
	return rt, true
}

// coveredByOwnOrigination reports whether a route originated by this
// speaker's own domain (locally, or by another of the domain's border
// routers and learned over the internal mesh) strictly covers sel's prefix
// — in which case the paper's aggregation rule says not to advertise the
// more-specific route externally (§4.3.2: "the border routers of the
// parent domain need not propagate their children's group routes"). An
// unexpired local origination is always its prefix's selected route, so
// the selected routes are all there is to walk.
func (s *Speaker) coveredByOwnOriginationLocked(table wire.Table, sel selected) bool {
	r, q := s.tables[table], sel.route.Prefix
	for l := q.Len - 1; l >= 0; {
		b, ok := r.covering(q.Base, l)
		if !ok {
			break
		}
		if (b.local || wire.DomainID(b.route.Origin) == s.cfg.Domain) && !s.expired(b.route) {
			return true
		}
		l = b.route.Prefix.Len - 1
	}
	return false
}

// selected is a best-route record.
type selected struct {
	route wire.Route
	from  wire.RouterID // zero for local
	local bool
}

func (a selected) equal(b selected) bool {
	if a.local != b.local || a.from != b.from {
		return false
	}
	if a.route.Prefix != b.route.Prefix || a.route.Origin != b.route.Origin ||
		a.route.ExpireUnix != b.route.ExpireUnix || len(a.route.ASPath) != len(b.route.ASPath) {
		return false
	}
	for i := range a.route.ASPath {
		if a.route.ASPath[i] != b.route.ASPath[i] {
			return false
		}
	}
	return true
}

// String aids debugging.
func (e Entry) String() string {
	return fmt.Sprintf("%v via %d origin %d path %v", e.Route.Prefix, e.NextHop, e.Route.Origin, e.Route.ASPath)
}
