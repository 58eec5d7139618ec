package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// asWorld is a world genWorld built over a topology.Graph the way the
// real-stack benchmark builds its worlds: graph domain v is domain v+1 with
// one border router, v+1, exporting everything, on a synchronous network
// on a simclock.Sim.
type asWorld struct {
	net   *Network
	graph *topology.Graph
	// roots are the top-level domains, each holding a MASC range it won.
	roots []topology.DomainID
	// links are the graph's links, a < b, ascending.
	links [][2]topology.DomainID
	// groups are the groups the roots leased, in lease order.
	groups []worldGroup
}

// worldGroup is one group of an asWorld: its address, the graph domain
// that leased it, and its member domains, one member host each.
type worldGroup struct {
	addr    addr.Addr
	root    topology.DomainID
	members []wire.DomainID
}

// netOpts are the network settings the callers of genWorld vary: the
// forwarding backend, the observer (nil for none) and, with faults, a fault
// plane on the world's clock behind every peering (Config.Faults), each
// link clean to begin with.
type netOpts struct {
	backend string
	ob      *obs.Observer
	faults  bool
}

// genWorld builds the world of graph: every domain one DVMRP border router
// and a /24 host prefix, the links brought up one at a time in ascending
// order, and the roots top-level MASC siblings that each claim a range and
// wait it out (claimSpace). Then each of groups in turn, which names its
// root and members and no address, is leased at its root and joined by its
// members. seed seeds the network and the fault plane. The built world must
// hold to violations.
func genWorld(t testing.TB, graph *topology.Graph, roots []topology.DomainID, seed int64, opts netOpts, groups []worldGroup) *asWorld {
	t.Helper()
	w := &asWorld{graph: graph, roots: roots}
	var world World
	for v := range graph.NumDomains() {
		id := wire.DomainID(v + 1)
		world.Domains = append(world.Domains, DomainConfig{
			ID: id, Routers: []wire.RouterID{wire.RouterID(id)}, Protocol: migp.DVMRP(),
			TopLevel:   slices.Contains(roots, topology.DomainID(v)),
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(id>>8), byte(id), 0), Len: 24},
		})
		for _, e := range graph.Neighbors(topology.DomainID(v)) {
			if int(e.To) > v {
				w.links = append(w.links, [2]topology.DomainID{topology.DomainID(v), e.To})
			}
		}
	}
	slices.SortFunc(w.links, func(a, b [2]topology.DomainID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, l := range w.links {
		world.Links = append(world.Links, [2]wire.RouterID{w.router(l[0]), w.router(l[1])})
	}
	for i, a := range roots {
		for _, b := range roots[i+1:] {
			world.Siblings = append(world.Siblings, [2]wire.DomainID{wire.DomainID(a + 1), wire.DomainID(b + 1)})
		}
	}
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	cfg := Config{Clock: clk, Seed: seed, Synchronous: true, DataPlane: opts.backend, Observer: opts.ob}
	if opts.faults {
		var err error
		if cfg.Faults, err = faultinject.New(faultinject.Config{Clock: clk, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Fatal(err)
		}
	}
	net, err := world.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.net = net
	var claimers []*Domain
	for _, root := range roots {
		claimers = append(claimers, net.Domain(wire.DomainID(root+1)))
	}
	claimSpace(t, clk, 256, 30*24*time.Hour, claimers...)
	for _, wg := range groups {
		lease, err := net.Domain(wire.DomainID(wg.root + 1)).NewGroup(24 * time.Hour)
		if err != nil {
			t.Fatalf("domain %d: %v", wg.root+1, err)
		}
		wg.addr = lease.Addr
		for _, m := range wg.members {
			net.Domain(m).Join(wg.addr, 0)
		}
		w.groups = append(w.groups, wg)
	}
	noViolations(t, "after set-up", violations(net, w.graph, w.addrs()))
	return w
}

func (w *asWorld) router(v topology.DomainID) wire.RouterID { return wire.RouterID(v + 1) }

// claimSpace has each of doms request size addresses of MASC space for
// lifetime, then runs clk past the 48-hour waiting period: each claim must
// be selected, and each domain must then hold one range more than before.
func claimSpace(t testing.TB, clk *simclock.Sim, size uint64, lifetime time.Duration, doms ...*Domain) {
	t.Helper()
	held := make([]int, len(doms))
	for i, d := range doms {
		held[i] = len(d.MASC().Holdings())
		if !d.MASC().RequestSpace(size, lifetime) {
			t.Fatalf("domain %d: no MASC claim could be selected", d.ID)
		}
	}
	clk.RunFor(49 * time.Hour)
	for i, d := range doms {
		if got := len(d.MASC().Holdings()); got != held[i]+1 {
			t.Fatalf("domain %d holds %d ranges, want %d", d.ID, got, held[i]+1)
		}
	}
}

// asWorldRoots is how many top-level domains claim MASC space in an asWorld.
const asWorldRoots = 4

// newASWorld builds an asWorld over topology.ASGraph(n, extra, seed): four
// roots drawn from a seed-seeded rand, and then two groups per root with
// three member domains apiece, drawn from the same rand, on the named
// forwarding backend. ob may be nil.
func newASWorld(t testing.TB, n, extra int, seed int64, backend string, ob *obs.Observer) *asWorld {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var roots []topology.DomainID
	for _, v := range r.Perm(n)[:asWorldRoots] {
		roots = append(roots, topology.DomainID(v))
	}
	var groups []worldGroup
	for _, root := range roots {
		for range 2 {
			wg := worldGroup{root: root}
			for _, m := range r.Perm(n)[:3] {
				wg.members = append(wg.members, wire.DomainID(m+1))
			}
			groups = append(groups, wg)
		}
	}
	return genWorld(t, topology.ASGraph(n, extra, seed), roots, seed, netOpts{backend: backend, ob: ob}, groups)
}

// chainNet builds source → transit×k → root → m member domains, plus, when
// behind > 0, a memberless hub domain off the root with behind more member
// domains off it. One group is rooted at the root domain with a member in
// every member domain. It returns the source domain and the group.
func chainNet(t testing.TB, transit, members, behind int, opts netOpts) (*Domain, addr.Addr) {
	t.Helper()
	// source, transit..., root, members..., then hub, members behind it...
	root, hub := transit+1, transit+2+members
	total := hub
	if behind > 0 {
		total += 1 + behind
	}
	g, group := topology.New(total), worldGroup{root: topology.DomainID(root)}
	for i := 1; i < total; i++ {
		up := i - 1
		switch {
		case i > hub:
			up = hub
		case i > root:
			up = root // member domains and the hub hang off the root
		}
		g.AddLink(topology.DomainID(up), topology.DomainID(i))
		if i > root && i != hub {
			group.members = append(group.members, wire.DomainID(i+1))
		}
	}
	w := genWorld(t, g, []topology.DomainID{group.root}, 7, opts, []worldGroup{group})
	return w.net.Domain(1), w.groups[0].addr
}

// ringNet builds n domains linked in a ring with a chord from every chord-th
// domain to the one a third of the way round, domain 1 holding a MASC range
// and no group leased: every router ends up with n+1 routes (a unicast
// prefix per domain, one group range) and at least two ways to reach each.
func ringNet(t testing.TB, n, chord int, opts netOpts) *Network {
	t.Helper()
	g := topology.New(n)
	for i := range n {
		g.AddLink(topology.DomainID(i), topology.DomainID((i+1)%n))
	}
	for i := 0; i < n; i += chord {
		g.AddLink(topology.DomainID(i), topology.DomainID((i+n/3)%n))
	}
	return genWorld(t, g, []topology.DomainID{0}, 7, opts, nil).net
}
