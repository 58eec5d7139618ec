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
	"fmt"
	"sort"
	"sync"

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

// ExportFilter decides whether a route may be advertised to a neighbor.
// Filters implement the paper's multicast routing policies: "a provider
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
	// without internal locks held and must not block indefinitely.
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
	neighbors map[wire.RouterID]Neighbor // guarded by mu
	tables    map[wire.Table]*rib        // guarded by mu
}

// New returns a configured Speaker.
func New(cfg Config) *Speaker {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Export == nil {
		cfg.Export = ExportAll
	}
	tables := map[wire.Table]*rib{}
	for _, t := range []wire.Table{wire.TableUnicast, wire.TableMRIB, wire.TableGRIB} {
		tables[t] = newRIB()
	}
	return &Speaker{
		cfg:       cfg,
		neighbors: map[wire.RouterID]Neighbor{},
		tables:    tables,
	}
}

// Router returns the speaker's router ID.
func (s *Speaker) Router() wire.RouterID { return s.cfg.Router }

// Domain returns the speaker's domain.
func (s *Speaker) Domain() wire.DomainID { return s.cfg.Domain }

// AddNeighbor registers a peer. Call Sync afterwards — once the remote side
// has also registered this speaker — to run the initial route exchange.
func (s *Speaker) AddNeighbor(n Neighbor) {
	s.mu.Lock()
	s.neighbors[n.Router] = n
	s.mu.Unlock()
}

// Sync sends the neighbor the exportable contents of every table: the
// initial route exchange after session establishment.
func (s *Speaker) Sync(to wire.RouterID) {
	s.mu.Lock()
	n, ok := s.neighbors[to]
	if !ok {
		s.mu.Unlock()
		return
	}
	var out []outUpdate
	for _, table := range []wire.Table{wire.TableUnicast, wire.TableMRIB, wire.TableGRIB} {
		r := s.tables[table]
		var routes []wire.Route
		for _, p := range r.sortedPrefixes() {
			b := r.best[p]
			if rt, ok := s.exportable(n, table, b); ok {
				routes = append(routes, rt)
				r.adjOutAdd(n.Router, p)
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
	delete(s.neighbors, id)
	var changed []tablePrefix
	for table, r := range s.tables {
		for _, p := range r.withdrawPeer(id) {
			changed = append(changed, tablePrefix{table, p})
		}
		delete(r.adjOut, id)
	}
	sortTablePrefixes(changed)
	out, notes := s.reselectLocked(changed, sp.Context())
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// Neighbors returns the configured neighbors sorted by router ID.
func (s *Speaker) Neighbors() []Neighbor {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Neighbor, 0, len(s.neighbors))
	for _, n := range s.neighbors {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Router < out[j].Router })
	return out
}

// Originate injects a locally sourced route (for the G-RIB: a MASC-won
// address range) and advertises it to peers.
func (s *Speaker) Originate(table wire.Table, rt wire.Route) {
	rt.Prefix = rt.Prefix.Canonical()
	s.mu.Lock()
	r := s.tables[table]
	r.local[rt.Prefix] = rt
	out, notes := s.reselectLocked([]tablePrefix{{table, rt.Prefix}}, wire.TraceContext{})
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// WithdrawLocal removes a locally originated route.
func (s *Speaker) WithdrawLocal(table wire.Table, p addr.Prefix) {
	p = p.Canonical()
	s.mu.Lock()
	r := s.tables[table]
	delete(r.local, p)
	out, notes := s.reselectLocked([]tablePrefix{{table, p}}, wire.TraceContext{})
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// HandleUpdate processes an update received from peer `from`. Unknown peers
// and looped routes are ignored. A traced update (stamped by the sender's
// reselection) gets a per-hop child span, and any updates this reselection
// propagates carry that span onward.
func (s *Speaker) HandleUpdate(from wire.RouterID, u *wire.Update) {
	sp := s.cfg.Obs.Tracer().BeginChild(wire.ContextOf(u), obs.SpanBGPUpdate,
		obs.Event{Domain: s.cfg.Domain, Router: s.cfg.Router, Peer: from, Table: u.Table})
	defer sp.End()
	s.mu.Lock()
	if _, ok := s.neighbors[from]; !ok {
		s.mu.Unlock()
		return
	}
	r := s.tables[u.Table]
	var changed []tablePrefix
	for _, p := range u.Withdrawn {
		p = p.Canonical()
		if r.adjInRemove(from, p) {
			changed = append(changed, tablePrefix{u.Table, p})
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
		r.adjInAdd(from, rt)
		changed = append(changed, tablePrefix{u.Table, rt.Prefix})
	}
	out, notes := s.reselectLocked(changed, sp.Context())
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
}

// Lookup performs a longest-prefix-match in a table. ok is false when no
// covering unexpired route exists.
//
//lint:hotpath
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
//
//lint:hotpath
func (s *Speaker) LookupBackup(table wire.Table, a addr.Addr) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.tables[table]
	cur, ok := s.longestMatchLocked(r, a)
	if !ok {
		return Entry{}, false
	}
	second, ok := s.decide(r, cur.route.Prefix, &cur)
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

// Table returns a snapshot of a table's best routes sorted by prefix; the
// paper's "G-RIB size" is len(Table(wire.TableGRIB)).
func (s *Speaker) Table(table wire.Table) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.tables[table]
	out := make([]Entry, 0, len(r.best))
	for _, p := range r.sortedPrefixes() {
		sel := r.best[p]
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
	var changed []tablePrefix
	for table, r := range s.tables {
		for p, rt := range r.local {
			if s.expired(rt) {
				delete(r.local, p)
				changed = append(changed, tablePrefix{table, p})
			}
		}
		for p, peers := range r.adjIn {
			for id, rt := range peers {
				if s.expired(rt) {
					delete(peers, id)
					changed = append(changed, tablePrefix{table, p})
				}
			}
			if len(peers) == 0 {
				delete(r.adjIn, p)
			}
		}
	}
	sortTablePrefixes(changed)
	out, notes := s.reselectLocked(changed, wire.TraceContext{})
	s.mu.Unlock()
	s.deliver(out)
	s.notify(notes)
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

// tablePrefix names one possibly-changed table entry.
type tablePrefix struct {
	table  wire.Table
	prefix addr.Prefix
}

// sortTablePrefixes orders re-selection work by (table, prefix) so that
// update and notification order never depends on map iteration.
func sortTablePrefixes(ps []tablePrefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].table != ps[j].table {
			return ps[i].table < ps[j].table
		}
		return addr.Compare(ps[i].prefix, ps[j].prefix) < 0
	})
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

// reselectLocked re-runs the decision process for the given prefixes and
// computes the updates to emit, stamping them (and the best-change notes)
// with ctx so downstream speakers and tree repair inherit the cause.
// Caller holds s.mu.
func (s *Speaker) reselectLocked(changed []tablePrefix, ctx wire.TraceContext) ([]outUpdate, []note) {
	seen := map[tablePrefix]bool{}
	// Pending per-peer updates, keyed by peer then table.
	pend := map[wire.RouterID]map[wire.Table]*wire.Update{}
	var notes []note
	add := func(to wire.RouterID, table wire.Table, f func(u *wire.Update)) {
		m := pend[to]
		if m == nil {
			m = map[wire.Table]*wire.Update{}
			pend[to] = m
		}
		u := m[table]
		if u == nil {
			u = &wire.Update{Table: table}
			wire.Stamp(u, ctx)
			m[table] = u
		}
		f(u)
	}
	for _, tp := range changed {
		if seen[tp] {
			continue
		}
		seen[tp] = true
		r := s.tables[tp.table]
		oldSel, hadOld := r.best[tp.prefix]
		newSel, hasNew := s.decide(r, tp.prefix, nil)
		if hadOld && hasNew && oldSel.equal(newSel) {
			continue
		}
		switch {
		case hasNew:
			r.best[tp.prefix] = newSel
			if !hadOld {
				r.lens[tp.prefix.Len]++
			}
		case hadOld:
			delete(r.best, tp.prefix)
			r.lens[tp.prefix.Len]--
		}
		notes = append(notes, note{tp.table, tp.prefix, !hasNew, ctx})
		// Advertise or withdraw to each neighbor.
		for id, n := range s.neighbors {
			if hasNew {
				if rt, ok := s.exportable(n, tp.table, newSel); ok {
					r.adjOutAdd(id, tp.prefix)
					add(id, tp.table, func(u *wire.Update) { u.Routes = append(u.Routes, rt) })
					continue
				}
			}
			if r.adjOutHas(id, tp.prefix) {
				r.adjOutRemove(id, tp.prefix)
				add(id, tp.table, func(u *wire.Update) { u.Withdrawn = append(u.Withdrawn, tp.prefix) })
			}
		}
	}
	var out []outUpdate
	ids := make([]wire.RouterID, 0, len(pend))
	for id := range pend {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, table := range []wire.Table{wire.TableUnicast, wire.TableMRIB, wire.TableGRIB} {
			if u, ok := pend[id][table]; ok {
				out = append(out, outUpdate{to: id, u: u})
			}
		}
	}
	return out, notes
}

// decide runs the decision process for one prefix: a local origination
// wins; otherwise the shortest AS path, tie-broken by lowest advertising
// router ID. Expired candidates are skipped, and so is the source of skip
// when non-nil — passing the current best yields the runner-up. The minimum
// is taken in one pass in map order: better is a total order whose last key,
// from, is the map key, so the result does not depend on iteration order.
func (s *Speaker) decide(r *rib, p addr.Prefix, skip *selected) (selected, bool) {
	if rt, ok := r.local[p]; ok && !s.expired(rt) && !(skip != nil && skip.local) {
		return selected{route: rt, local: true}, true
	}
	var best selected
	found := false
	for id, rt := range r.adjIn[p] {
		if s.expired(rt) || (skip != nil && !skip.local && id == skip.from) {
			continue
		}
		cand := selected{route: rt, from: id}
		if !found || cand.better(best) {
			best = cand
			found = true
		}
	}
	return best, found
}

// exportable applies the advertisement rules for neighbor n and returns the
// route as it should appear on the wire.
func (s *Speaker) exportable(n Neighbor, table wire.Table, sel selected) (wire.Route, bool) {
	if s.expired(sel.route) {
		return wire.Route{}, false
	}
	// Never echo a route to the peer it was learned from.
	if !sel.local && sel.from == n.Router {
		return wire.Route{}, false
	}
	if n.Internal {
		// iBGP split horizon over the full mesh: only locally originated
		// and externally learned routes go to internal peers.
		if !sel.local && s.isInternalLocked(sel.from) {
			return wire.Route{}, false
		}
		return sel.route.Clone(), true
	}
	// External export.
	if s.cfg.AggregateCovered && s.coveredByOwnOriginationLocked(table, sel) {
		return wire.Route{}, false
	}
	rt := sel.route.Clone()
	if !s.cfg.Export(n, table, rt) {
		return wire.Route{}, false
	}
	rt.ASPath = append([]wire.DomainID{s.cfg.Domain}, rt.ASPath...)
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
// parent domain need not propagate their children's group routes").
func (s *Speaker) coveredByOwnOriginationLocked(table wire.Table, sel selected) bool {
	r, q := s.tables[table], sel.route.Prefix
	for p, rt := range r.local {
		if p.Len < q.Len && p.ContainsPrefix(q) && !s.expired(rt) {
			return true
		}
	}
	for l := q.Len - 1; l >= 0; {
		b, ok := r.covering(q.Base, l)
		if !ok {
			break
		}
		if wire.DomainID(b.route.Origin) == s.cfg.Domain && !s.expired(b.route) {
			return true
		}
		l = b.route.Prefix.Len - 1
	}
	return false
}

func (s *Speaker) isInternalLocked(id wire.RouterID) bool {
	n, ok := s.neighbors[id]
	return ok && n.Internal
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

// better implements the route preference order.
func (a selected) better(b selected) bool {
	if a.local != b.local {
		return a.local
	}
	if len(a.route.ASPath) != len(b.route.ASPath) {
		return len(a.route.ASPath) < len(b.route.ASPath)
	}
	return a.from < b.from
}

// String aids debugging.
func (e Entry) String() string {
	return fmt.Sprintf("%v via %d origin %d path %v", e.Route.Prefix, e.NextHop, e.Route.Origin, e.Route.ASPath)
}
