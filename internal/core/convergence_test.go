package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"mascbgmp/internal/bgp"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// ribViolations compares every router's unicast RIB and its RPF view (M-RIB,
// else unicast: Router.lookupSource) with the one state BGP can converge to
// on g, with every route exported and AS-path length then lowest
// advertising router deciding: for each domain's host prefix, a router at
// BFS distance k ≥ 1 from the prefix's domain selects a path k domains long
// through the lowest-ID neighbour at distance k−1; the domain's own router
// selects its origination; a router the domain cannot reach holds no route.
// Graph domain v must be the network's domain and router v+1, each domain
// with its one border router. It returns one line per disagreement, sorted;
// nil when the network has converged.
func ribViolations(net *Network, g *topology.Graph) []string {
	var out []string
	for _, d := range net.Domains() {
		p := d.hostPrefix
		if !p.Valid() || p.Len == 0 {
			continue
		}
		dist, _ := g.BFS(topology.DomainID(d.ID - 1))
		for v, k := range dist {
			r := net.Router(wire.RouterID(v + 1))
			want := r.ID // the origin selects its own origination
			if k > 0 {
				want = 0
				for _, e := range g.Neighbors(topology.DomainID(v)) {
					if u := wire.RouterID(e.To + 1); dist[e.To] == k-1 && (want == 0 || u < want) {
						want = u
					}
				}
			}
			unicast, uok := r.bgp.LookupPrefix(wire.TableUnicast, p)
			rpf, rok := r.lookupSource(p.Base)
			for _, view := range [...]struct {
				name string
				e    bgp.Entry
				ok   bool
			}{{"unicast", unicast, uok}, {"RPF", rpf, rok}} {
				e := view.e
				where := fmt.Sprintf("router %d %s %v", r.ID, view.name, p)
				switch {
				case k < 0 && view.ok:
					out = append(out, fmt.Sprintf("%s: unreachable, but has %v", where, e))
				case k < 0:
				case !view.ok:
					out = append(out, fmt.Sprintf("%s: no route, BFS distance %d", where, k))
				case e.Route.Prefix != p:
					out = append(out, fmt.Sprintf("%s: resolves through %v", where, e.Route.Prefix))
				case len(e.Route.ASPath) != k || e.Local != (k == 0):
					out = append(out, fmt.Sprintf("%s: AS path %v, BFS distance %d", where, e.Route.ASPath, k))
				case e.NextHop != want:
					out = append(out, fmt.Sprintf("%s: next hop %d, want %d, the lowest-ID neighbour one hop closer", where, e.NextHop, want))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestRPFFollowsTheMRIBWhereItHasARoute makes Fig 3(b)'s world
// incongruent: domain A originates its host prefix into the M-RIB as well,
// and A's export policy keeps that M-RIB route off one peering, A4–F2. F,
// the one domain with a second way to A, then learns A's M-RIB route
// through B ([2 1], at F1) while its unicast route stays direct ([1], at
// F2). The RPF view follows the M-RIB there: F's best exit for a source in
// A is F1 (Domain.bestExit), and both of F's routers resolve that source
// by the M-RIB route (Router.lookupSource). A source of any other domain,
// which no M-RIB route covers, resolves by the unicast table everywhere.
// No generated world holds an M-RIB route, so this test is what runs the
// M-RIB branch of both.
func TestRPFFollowsTheMRIBWhereItHasARoute(t *testing.T) {
	const a, f = wire.DomainID(1), wire.DomainID(6)
	w := PaperWorld()
	w.Domains[a-1].Export = func(to bgp.Neighbor, table wire.Table, _ wire.Route) bool {
		return table != wire.TableMRIB || to.Router != 62
	}
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	net, err := w.Build(Config{Clock: clk, Seed: 42, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	src := net.Domain(a).HostAddr(1)
	net.Router(11).BGP().Originate(wire.TableMRIB, wire.Route{Prefix: net.Domain(a).hostPrefix, Origin: a})

	// Every router holds A's M-RIB route, and it is its RPF view of A.
	for _, d := range net.Domains() {
		for _, r := range d.Routers() {
			m, ok := r.bgp.Lookup(wire.TableMRIB, src)
			if !ok {
				t.Fatalf("router %d: no M-RIB route to %v", r.ID, src)
			}
			if e, _ := r.lookupSource(src); !slices.Equal(e.Route.ASPath, m.Route.ASPath) || e.NextHop != m.NextHop {
				t.Errorf("router %d: RPF view of %v is %v, want the M-RIB's %v", r.ID, src, e, m)
			}
		}
	}
	for id, want := range map[wire.RouterID][]wire.DomainID{61: {2, 1}, 62: {2, 1}} {
		if e, _ := net.Router(id).lookupSource(src); !slices.Equal(e.Route.ASPath, want) {
			t.Errorf("router %d: RPF view of A is %v, want AS path %v, through B", id, e, want)
		}
	}
	if u, _ := net.Router(62).bgp.Lookup(wire.TableUnicast, src); !slices.Equal(u.Route.ASPath, []wire.DomainID{1}) {
		t.Fatalf("router 62: unicast route to A is %v, want A direct: the views would not differ", u)
	}
	if got, unicast := net.Domain(f).bestExit(src), net.Domain(f).exitVia(wire.TableUnicast, src); got != 61 || unicast != 62 {
		t.Errorf("F's best exit to A is %d (unicast's %d), want 61, the M-RIB's, where unicast's is 62", got, unicast)
	}

	// Every other source: no M-RIB route, so unicast decides.
	for _, sd := range net.Domains() {
		if sd.ID == a {
			continue
		}
		s := sd.HostAddr(1)
		for _, d := range net.Domains() {
			if got, want := d.bestExit(s), d.exitVia(wire.TableUnicast, s); got != want {
				t.Errorf("domain %d's best exit to %v is %d, want unicast's %d", d.ID, s, got, want)
			}
			for _, r := range d.Routers() {
				u, _ := r.bgp.Lookup(wire.TableUnicast, s)
				if e, ok := r.lookupSource(s); !ok || e.NextHop != u.NextHop || !slices.Equal(e.Route.ASPath, u.Route.ASPath) {
					t.Errorf("router %d: RPF view of %v is %v, want the unicast %v", r.ID, s, e, u)
				}
			}
		}
	}
}

// TestRIBsConvergeToShortestPaths holds every router's unicast RIB and
// RPF view to ribViolations' oracle, and the shared trees to treeViolations,
// after set-up, with each of eight links down and after it comes back. The
// first link flapped is a root's; the rest are drawn from the whole graph. A delivery order may change the path
// to convergence, never where it ends: delivered by nested call, a
// speaker's stale updates could overtake its fresh ones, and the first
// link down left ten entries wrong. One of the links, 2–55, is domain 55's
// only one, so its flap withdraws a prefix everywhere and brings it back.
// Each flap must move fewer route items than the RIBs hold entries:
// breadth-first without superseding a waiting update, that withdrawal
// hunted down alternative paths for 3.7 million items.
func TestRIBsConvergeToShortestPaths(t *testing.T) {
	ob := obs.NewObserver()
	w := newASWorld(t, 80, 40, 1998, dataplane.SharedTreeName, ob)
	groups := w.addrs()
	check := func(when string) {
		t.Helper()
		noViolations(t, when, violations(w.net, w.graph, groups))
	}
	check("after set-up")
	entries := ribEntries(w.net)

	var flaps [][2]topology.DomainID
	for _, l := range w.links {
		if l[0] == w.roots[0] || l[1] == w.roots[0] {
			flaps = append(flaps, l)
			break
		}
	}
	for _, i := range rand.New(rand.NewSource(7)).Perm(len(w.links))[:7] {
		flaps = append(flaps, w.links[i])
	}
	for _, l := range flaps {
		a, b := w.router(l[0]), w.router(l[1])
		before := ob.Snapshot()
		if err := w.net.Unlink(a, b); err != nil {
			t.Fatal(err)
		}
		w.graph.RemoveLink(l[0], l[1])
		check(fmt.Sprintf("link %d–%d down", a, b))
		if err := w.net.Link(a, b); err != nil {
			t.Fatal(err)
		}
		w.graph.AddLink(l[0], l[1])
		check(fmt.Sprintf("link %d–%d back", a, b))
		d := ob.Snapshot().Diff(before)
		if items := int(d.Total(obs.BGPAnnounce) + d.Total(obs.BGPWithdraw)); items > entries {
			t.Errorf("link %d–%d: a flap moved %d route items, more than the %d RIB entries", a, b, items, entries)
		}
	}
}
