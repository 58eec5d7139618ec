package bgp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// refSpeaker is the write path as it was before the per-prefix record: one
// prefix's state spread over five maps (local, adjIn and its inner map,
// best, adjOut per peer), neighbours in a map, a seen set and a two-level
// pending map per reselection, a Clone and a prepending append per exported
// route per neighbour, and the §4.3.2 test as a scan. Kept as the oracle:
// it is driven by the same Config (Send, OnBestChange, Export, Clock) as
// the Speaker under test.
type refSpeaker struct {
	cfg       Config
	neighbors map[wire.RouterID]Neighbor
	tables    map[wire.Table]*refRIB
}

type refRIB struct {
	local  map[addr.Prefix]wire.Route
	adjIn  map[addr.Prefix]map[wire.RouterID]wire.Route
	best   map[addr.Prefix]refSelected
	adjOut map[wire.RouterID]map[addr.Prefix]bool
}

// refSelected is a best route as the old speaker kept it: the whole
// wire.Route, prefix included.
type refSelected struct {
	route wire.Route
	from  wire.RouterID // zero for local
	local bool
}

func (a refSelected) equal(b refSelected) bool {
	return a.local == b.local && a.from == b.from && a.route.Prefix == b.route.Prefix &&
		a.route.Origin == b.route.Origin && a.route.ExpireUnix == b.route.ExpireUnix &&
		slices.Equal(a.route.ASPath, b.route.ASPath)
}

type refTablePrefix struct {
	table  wire.Table
	prefix addr.Prefix
}

var refTables = []wire.Table{wire.TableUnicast, wire.TableMRIB, wire.TableGRIB}

func newRefSpeaker(cfg Config) *refSpeaker {
	s := &refSpeaker{cfg: cfg, neighbors: map[wire.RouterID]Neighbor{}, tables: map[wire.Table]*refRIB{}}
	for _, t := range refTables {
		s.tables[t] = &refRIB{
			local:  map[addr.Prefix]wire.Route{},
			adjIn:  map[addr.Prefix]map[wire.RouterID]wire.Route{},
			best:   map[addr.Prefix]refSelected{},
			adjOut: map[wire.RouterID]map[addr.Prefix]bool{},
		}
	}
	return s
}

func (r *refRIB) sortedPrefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, len(r.best))
	for p := range r.best {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return addr.Compare(out[i], out[j]) < 0 })
	return out
}

func (r *refRIB) adjOutAdd(id wire.RouterID, p addr.Prefix) {
	if r.adjOut[id] == nil {
		r.adjOut[id] = map[addr.Prefix]bool{}
	}
	r.adjOut[id][p] = true
}

func (s *refSpeaker) expired(rt wire.Route) bool {
	return rt.ExpireUnix != 0 && uint64(s.cfg.Clock.Now().Unix()) >= rt.ExpireUnix
}

func (s *refSpeaker) AddNeighbor(n Neighbor) { s.neighbors[n.Router] = n }

func (s *refSpeaker) Sync(to wire.RouterID) {
	n, ok := s.neighbors[to]
	if !ok {
		return
	}
	var out []outUpdate
	for _, table := range refTables {
		r := s.tables[table]
		var routes []wire.Route
		for _, p := range r.sortedPrefixes() {
			if rt, ok := s.exportable(n, table, r.best[p]); ok {
				routes = append(routes, rt)
				r.adjOutAdd(n.Router, p)
			}
		}
		if len(routes) > 0 {
			out = append(out, outUpdate{to: n.Router, u: &wire.Update{Table: table, Routes: routes}})
		}
	}
	s.deliver(out)
}

func (s *refSpeaker) RemoveNeighbor(id wire.RouterID) {
	delete(s.neighbors, id)
	var changed []refTablePrefix
	for table, r := range s.tables {
		for p, m := range r.adjIn {
			if _, ok := m[id]; ok {
				delete(m, id)
				if len(m) == 0 {
					delete(r.adjIn, p)
				}
				changed = append(changed, refTablePrefix{table, p})
			}
		}
		delete(r.adjOut, id)
	}
	s.reselect(changed, true)
}

func (s *refSpeaker) Originate(table wire.Table, rt wire.Route) {
	rt.Prefix = rt.Prefix.Canonical()
	s.tables[table].local[rt.Prefix] = rt
	s.reselect([]refTablePrefix{{table, rt.Prefix}}, false)
}

func (s *refSpeaker) WithdrawLocal(table wire.Table, p addr.Prefix) {
	p = p.Canonical()
	delete(s.tables[table].local, p)
	s.reselect([]refTablePrefix{{table, p}}, false)
}

func (s *refSpeaker) HandleUpdate(from wire.RouterID, u *wire.Update) {
	if _, ok := s.neighbors[from]; !ok {
		return
	}
	r := s.tables[u.Table]
	var changed []refTablePrefix
	for _, p := range u.Withdrawn {
		p = p.Canonical()
		if _, ok := r.adjIn[p][from]; ok {
			delete(r.adjIn[p], from)
			if len(r.adjIn[p]) == 0 {
				delete(r.adjIn, p)
			}
			changed = append(changed, refTablePrefix{u.Table, p})
		}
	}
	for _, rt := range u.Routes {
		rt.Prefix = rt.Prefix.Canonical()
		if rt.HasLoop(s.cfg.Domain) || s.expired(rt) {
			continue
		}
		if r.adjIn[rt.Prefix] == nil {
			r.adjIn[rt.Prefix] = map[wire.RouterID]wire.Route{}
		}
		r.adjIn[rt.Prefix][from] = rt.Clone()
		changed = append(changed, refTablePrefix{u.Table, rt.Prefix})
	}
	s.reselect(changed, false)
}

func (s *refSpeaker) Sweep() {
	var changed []refTablePrefix
	for table, r := range s.tables {
		for p, rt := range r.local {
			if s.expired(rt) {
				delete(r.local, p)
				changed = append(changed, refTablePrefix{table, p})
			}
		}
		for p, peers := range r.adjIn {
			for id, rt := range peers {
				if s.expired(rt) {
					delete(peers, id)
					changed = append(changed, refTablePrefix{table, p})
				}
			}
			if len(peers) == 0 {
				delete(r.adjIn, p)
			}
		}
	}
	s.reselect(changed, true)
}

func (s *refSpeaker) Table(table wire.Table) []Entry {
	r := s.tables[table]
	out := make([]Entry, 0, len(r.best))
	for _, p := range r.sortedPrefixes() {
		sel := r.best[p]
		if s.expired(sel.route) {
			continue
		}
		sel.route = sel.route.Clone()
		e := Entry{Route: sel.route, NextHop: sel.from, Local: sel.local}
		if sel.local {
			e.NextHop = s.cfg.Router
		}
		out = append(out, e)
	}
	return out
}

func (s *refSpeaker) deliver(out []outUpdate) {
	for _, o := range out {
		s.cfg.Send(o.to, o.u)
	}
}

// reselect is the old reselectLocked followed by deliver and notify.
func (s *refSpeaker) reselect(changed []refTablePrefix, sorted bool) {
	if sorted {
		sort.Slice(changed, func(i, j int) bool {
			if changed[i].table != changed[j].table {
				return changed[i].table < changed[j].table
			}
			return addr.Compare(changed[i].prefix, changed[j].prefix) < 0
		})
	}
	seen := map[refTablePrefix]bool{}
	pend := map[wire.RouterID]map[wire.Table]*wire.Update{}
	type refNote struct {
		table  wire.Table
		prefix addr.Prefix
		lost   bool
	}
	var notes []refNote
	add := func(to wire.RouterID, table wire.Table, f func(u *wire.Update)) {
		if pend[to] == nil {
			pend[to] = map[wire.Table]*wire.Update{}
		}
		if pend[to][table] == nil {
			pend[to][table] = &wire.Update{Table: table}
		}
		f(pend[to][table])
	}
	for _, tp := range changed {
		if seen[tp] {
			continue
		}
		seen[tp] = true
		r := s.tables[tp.table]
		oldSel, hadOld := r.best[tp.prefix]
		newSel, hasNew := s.decide(r, tp.prefix)
		if hadOld && hasNew && oldSel.equal(newSel) {
			continue
		}
		switch {
		case hasNew:
			r.best[tp.prefix] = newSel
		case hadOld:
			delete(r.best, tp.prefix)
		}
		notes = append(notes, refNote{tp.table, tp.prefix, !hasNew})
		for id, n := range s.neighbors {
			if hasNew {
				if rt, ok := s.exportable(n, tp.table, newSel); ok {
					r.adjOutAdd(id, tp.prefix)
					add(id, tp.table, func(u *wire.Update) { u.Routes = append(u.Routes, rt) })
					continue
				}
			}
			if r.adjOut[id][tp.prefix] {
				delete(r.adjOut[id], tp.prefix)
				add(id, tp.table, func(u *wire.Update) { u.Withdrawn = append(u.Withdrawn, tp.prefix) })
			}
		}
	}
	ids := make([]wire.RouterID, 0, len(pend))
	for id := range pend {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []outUpdate
	for _, id := range ids {
		for _, table := range refTables {
			if u, ok := pend[id][table]; ok {
				out = append(out, outUpdate{to: id, u: u})
			}
		}
	}
	s.deliver(out)
	for _, n := range notes {
		s.cfg.OnBestChange(n.table, n.prefix, n.lost, wire.TraceContext{})
	}
}

func (s *refSpeaker) decide(r *refRIB, p addr.Prefix) (refSelected, bool) {
	if rt, ok := r.local[p]; ok && !s.expired(rt) {
		return refSelected{route: rt, local: true}, true
	}
	var best refSelected
	found := false
	for id, rt := range r.adjIn[p] {
		if s.expired(rt) {
			continue
		}
		cand := refSelected{route: rt, from: id}
		if !found || len(cand.route.ASPath) < len(best.route.ASPath) ||
			(len(cand.route.ASPath) == len(best.route.ASPath) && cand.from < best.from) {
			best, found = cand, true
		}
	}
	return best, found
}

func (s *refSpeaker) exportable(n Neighbor, table wire.Table, sel refSelected) (wire.Route, bool) {
	if s.expired(sel.route) {
		return wire.Route{}, false
	}
	if !sel.local && sel.from == n.Router {
		return wire.Route{}, false
	}
	if n.Internal {
		if from, ok := s.neighbors[sel.from]; !sel.local && ok && from.Internal {
			return wire.Route{}, false
		}
		return sel.route.Clone(), true
	}
	if s.cfg.AggregateCovered && s.covered(table, sel) {
		return wire.Route{}, false
	}
	rt := sel.route.Clone()
	if !s.cfg.Export(n, table, rt) {
		return wire.Route{}, false
	}
	rt.ASPath = append([]wire.DomainID{s.cfg.Domain}, rt.ASPath...)
	if rt.HasLoop(n.Domain) {
		return wire.Route{}, false
	}
	return rt, true
}

// covered is the §4.3.2 test as two scans.
func (s *refSpeaker) covered(table wire.Table, sel refSelected) bool {
	r, q := s.tables[table], sel.route.Prefix
	for p, rt := range r.local {
		if p.Len < q.Len && p.ContainsPrefix(q) && !s.expired(rt) {
			return true
		}
	}
	for p, b := range r.best {
		if wire.DomainID(b.route.Origin) == s.cfg.Domain && p.Len < q.Len && p.ContainsPrefix(q) && !s.expired(b.route) {
			return true
		}
	}
	return false
}

// emission is one thing a speaker did to the outside world: an update sent
// (with its routes and withdrawals in order) or a best-change note.
type emission struct {
	to        wire.RouterID
	table     wire.Table
	routes    []wire.Route
	withdrawn []addr.Prefix
	note      bool
	prefix    addr.Prefix
	lost      bool
}

// recordInto returns a Config whose Send and OnBestChange append to log.
func recordInto(log *[]emission, clk simclock.Clock, export ExportFilter) Config {
	return Config{
		Router: 1, Domain: 1, Clock: clk, AggregateCovered: true, Export: export,
		Send: func(to wire.RouterID, u *wire.Update) {
			e := emission{to: to, table: u.Table}
			for _, rt := range u.Routes {
				e.routes = append(e.routes, rt.Clone())
			}
			e.withdrawn = append(e.withdrawn, u.Withdrawn...)
			*log = append(*log, e)
		},
		OnBestChange: func(table wire.Table, p addr.Prefix, lost bool, _ wire.TraceContext) {
			*log = append(*log, emission{note: true, table: table, prefix: p, lost: lost})
		},
	}
}

// TestRecordWritePathMatchesFiveMapOracle drives the record-based Speaker
// and the five-map reference with one seeded random script — sessions
// coming up and going away, announcements (fresh, duplicate, looped,
// already expired, expiring later), withdrawals (of routes held and not),
// originations and their withdrawal, the clock and Sweep — over nested
// prefixes on all three tables, with internal and external neighbours,
// aggregation on and a customer export policy. After every step both must
// have sent the same updates to the same peers in the same order, element
// for element, raised the same best-change notes, and hold the same tables.
func TestRecordWritePathMatchesFiveMapOracle(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	lens := []int{0, 4, 8, 12, 16, 17, 24, 32}
	neighbors := []Neighbor{
		{Router: 7, Domain: 3}, {Router: 2, Domain: 2}, {Router: 9, Domain: 4},
		{Router: 4, Domain: 1, Internal: true}, {Router: 3, Domain: 1, Internal: true},
	}
	// Domain 2 is a customer, 3 and 4 are providers or peers.
	export := TableExportFilter(wire.TableGRIB, CustomerExportFilter(1, map[wire.DomainID]bool{2: true, 6: true}))
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.NewSim(start)
		var gotLog, wantLog []emission
		got := New(recordInto(&gotLog, clk, export))
		want := newRefSpeaker(recordInto(&wantLog, clk, export))

		bases := []addr.Addr{addr.Addr(rng.Uint32()), addr.MakeAddr(224, 1, 2, 3), addr.MakeAddr(10, 9, 8, 7)}
		bases = append(bases, bases[0]^0x00010000, bases[1]^0x00000100)
		prefix := func() addr.Prefix {
			// Not canonical on purpose: both sides must canonicalize alike.
			return addr.Prefix{Base: bases[rng.Intn(len(bases))], Len: lens[rng.Intn(len(lens))]}
		}
		route := func(origins ...wire.DomainID) wire.Route {
			rt := wire.Route{Prefix: prefix(), Origin: origins[rng.Intn(len(origins))]}
			switch rng.Intn(8) {
			case 0, 1, 2:
				rt.ExpireUnix = uint64(clk.Now().Unix()) + 1 + uint64(rng.Intn(60))
			case 3:
				rt.ExpireUnix = uint64(clk.Now().Unix()) - uint64(rng.Intn(2)) // dead on arrival
			}
			return rt
		}
		learned := func() wire.Route {
			rt := route(1, 2, 5, 6)
			rt.ASPath = make([]wire.DomainID, 1+rng.Intn(3))
			for i := range rt.ASPath {
				rt.ASPath[i] = wire.DomainID(1 + rng.Intn(8)) // 1 loops; 3 and 4 loop on export
			}
			return rt
		}
		up := map[wire.RouterID]bool{}

		for step := 0; step < 600; step++ {
			table := refTables[rng.Intn(len(refTables))]
			n := neighbors[rng.Intn(len(neighbors))]
			var what string
			switch op := rng.Intn(20); {
			case op < 2 || len(up) == 0 && op < 10: // session up: register (or re-register) and exchange tables
				what = fmt.Sprintf("AddNeighbor+Sync(%+v)", n)
				up[n.Router] = true
				got.AddNeighbor(n)
				want.AddNeighbor(n)
				got.Sync(n.Router)
				want.Sync(n.Router)
			case op < 10: // a mixed update, duplicates included
				u := &wire.Update{Table: table}
				for k := rng.Intn(4); k > 0; k-- {
					u.Withdrawn = append(u.Withdrawn, prefix())
				}
				for k := 1 + rng.Intn(5); k > 0; k-- {
					rt := learned()
					u.Routes = append(u.Routes, rt)
					if rng.Intn(4) == 0 {
						u.Routes = append(u.Routes, rt) // the same prefix twice in one batch
					}
				}
				what = fmt.Sprintf("HandleUpdate(%d, %+v)", n.Router, u)
				got.HandleUpdate(n.Router, u)
				want.HandleUpdate(n.Router, u)
			case op < 12:
				u := &wire.Update{Table: table, Withdrawn: []addr.Prefix{prefix(), prefix()}}
				what = fmt.Sprintf("HandleUpdate(%d, %+v)", n.Router, u)
				got.HandleUpdate(n.Router, u)
				want.HandleUpdate(n.Router, u)
			case op < 13:
				what = fmt.Sprintf("RemoveNeighbor(%d)", n.Router)
				delete(up, n.Router)
				got.RemoveNeighbor(n.Router, wire.TraceContext{})
				want.RemoveNeighbor(n.Router)
			case op < 15:
				rt := route(1, 1, 1, 6)
				what = fmt.Sprintf("Originate(%v, %+v)", table, rt)
				got.Originate(table, rt)
				want.Originate(table, rt)
			case op < 16:
				p := prefix()
				what = fmt.Sprintf("WithdrawLocal(%v, %v)", table, p)
				got.WithdrawLocal(table, p)
				want.WithdrawLocal(table, p)
			case op < 17:
				what = "Sweep"
				got.Sweep()
				want.Sweep()
			default:
				what = "clock"
				clk.RunFor(time.Duration(1+rng.Intn(25)) * time.Second)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("seed %d step %d %s:\n got %+v\nwant %+v", seed, step, what, gotLog, wantLog)
			}
			gotLog, wantLog = gotLog[:0], wantLog[:0]
			for _, table := range refTables {
				if g, w := got.Table(table), want.Table(table); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d %s: table %v:\n got %+v\nwant %+v", seed, step, what, table, g, w)
				}
				got.mu.Lock()
				checkMirror(t, table, got.tables[table])
				got.mu.Unlock()
			}
		}
	}
}
