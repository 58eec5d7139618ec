package core

import (
	"math/rand"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// chainNet builds source → transit×k → root → m member domains out of
// single-router domains on a synchronous network, plus, when behind > 0, a
// memberless hub domain off the root with behind more member domains off
// it. One group is rooted at the root domain with a member in every member
// domain. It returns the source domain and the group.
func chainNet(t *testing.T, backend string, transit, members, behind int) (*Domain, addr.Addr) {
	t.Helper()
	return chainNetFaults(t, backend, transit, members, behind, false)
}

// chainNetFaults is chainNet with, when faulty, every peering behind a fault
// plane on the network's clock (Config.Faults), all links clean to begin with.
func chainNetFaults(t *testing.T, backend string, transit, members, behind int, faulty bool) (*Domain, addr.Addr) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	cfg := Config{Clock: clk, Seed: 7, Synchronous: true, DataPlane: backend}
	var err error
	if faulty {
		if cfg.Faults, err = faultinject.New(faultinject.Config{Clock: clk, Rand: rand.New(rand.NewSource(7))}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// source, transit..., root, members..., then hub, members behind it...
	root, hub := transit+1, transit+2+members
	total := hub
	if behind > 0 {
		total += 1 + behind
	}
	doms := make([]*Domain, total)
	for i := range doms {
		id := wire.DomainID(i + 1)
		doms[i], err = n.AddDomain(DomainConfig{
			ID: id, Routers: []wire.RouterID{wire.RouterID(id)}, Protocol: migp.DVMRP(),
			TopLevel:   i == root,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(id), 0, 0), Len: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < total; i++ {
		up := i - 1
		switch {
		case i > hub:
			up = hub
		case i > root:
			up = root // member domains and the hub hang off the root
		}
		if err := n.Link(wire.RouterID(up+1), wire.RouterID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if !doms[root].MASC().RequestSpace(256, 30*24*time.Hour) {
		t.Fatal("root's claim selection failed")
	}
	clk.RunFor(49 * time.Hour)
	lease, err := doms[root].NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range doms[root+1:] {
		if root+1+i != hub {
			d.Join(lease.Addr, 0)
		}
	}
	return doms[0], lease.Addr
}

// TestSendAllocBudget pins what one multicast send allocates, exactly, as
//
//	perCopy × copies sent down + perDelivery × member deliveries
//	+ perSplit × bitstring splits + constant
//
// A peering hop costs nothing on any backend, up to the root domain or down
// from it: the packet is forwarded as it is and decoded into a recycled one
// (Network.packets), and a native packet enters an interior without a copy.
// What is left is each backend's own. On the shared tree a member delivery
// costs 1, the Delivery record's payload string, and the constant 2 is the
// packet and its payload. BIER pays 1 for the copy forwardBits aims at each
// next hop (one per peering crossed on the way down), 1 slab at every router
// that splits a string, 2 per delivery (the copy the member's border strips
// of its string, the Delivery string) and a constant 5: the packet, its
// payload, the tunnel copy the source's border makes, the copy the root
// strips of the tunnel, and the root's string. Map-and-encap pays 3 per
// delivery (the tunnel copy the root makes, the copy the member's border
// strips of it, the Delivery string) and BIER's constant less the string;
// its tunnels share no hop, and crossing root → hub once per member behind
// it costs nothing now. Every row is the measured floor, under go test and
// go test -race: one allocation more or fewer anywhere on the path fails.
// ROADMAP item 7(a) tracks the overlays' rows.
//
// Each world has also been sent a MemberReport for a domain no bitstring
// can carry (wire.MaxDataBit): BIER must refuse it rather than size every
// packet's string to it, and the group's members must go on receiving
// exactly one copy.
func TestSendAllocBudget(t *testing.T) {
	budgets := []struct {
		backend                                  string
		perCopy, perDelivery, perSplit, constant int
	}{
		{dataplane.SharedTreeName, 0, 1, 0, 2},
		{dataplane.BIERName, 1, 2, 1, 5},
		{dataplane.MapEncapName, 0, 3, 0, 4},
	}
	for _, b := range budgets {
		// transit domains, members off the root, members behind the hub
		for _, shape := range [][3]int{{1, 1, 0}, {4, 5, 0}, {2, 2, 3}, {6, 1, 4}} {
			transit, members, behind := shape[0], shape[1], shape[2]
			src, g := chainNet(t, b.backend, transit, members, behind)
			root := wire.RouterID(transit + 2)
			src.net.Router(root).dispatch(root+1, &wire.MemberReport{Group: g, Domain: 0xFFFFFFFF})
			from := src.HostAddr(0)
			got := int(testing.AllocsPerRun(50, func() { src.Send(g, from, "sixteen byte load", 0) }))

			deliveries, splits := members+behind, 1 // routers with a string to split
			copies := deliveries
			if behind > 0 {
				copies, splits = deliveries+1, 2 // one more for root → hub, which splits again
			}
			budget := b.perCopy*copies + b.perDelivery*deliveries + b.perSplit*splits + b.constant
			if got != budget {
				t.Errorf("%s, shape %v: %d allocations per send, want %d×%d + %d×%d + %d×%d + %d = %d", b.backend, shape,
					got, b.perCopy, copies, b.perDelivery, deliveries, b.perSplit, splits, b.constant, budget)
			}

			var memberDomains []wire.DomainID
			hub := wire.DomainID(transit + 3 + members)
			for _, d := range src.net.Domains() {
				if d.ID > wire.DomainID(root) && d.ID != hub {
					memberDomains = append(memberDomains, d.ID)
				}
			}
			assertExactlyOnce(t, src.net, g, memberDomains, src.ID)
		}
	}
}

// TestJoinAllocBudget pins what one host Join and the Leave that undoes it
// may allocate when the joining domain is the chain's far end, as
//
//	perHop × peering hops to the root + constant
//
// On the shared tree a hop costs 9: the join builds a (*,G) entry and its
// child map at the next router, records the child, and both the GroupJoin
// and the GroupPrune cost an output list, the message and its decoded
// copy. The overlays keep no transit state, so a hop is the two decoded
// MemberReports. All three rows are the measured floor: one more
// allocation anywhere between the host and the root fails.
func TestJoinAllocBudget(t *testing.T) {
	budgets := []struct {
		backend          string
		perHop, constant int
	}{
		{dataplane.SharedTreeName, 9, 2},
		{dataplane.BIERName, 2, 4},
		{dataplane.MapEncapName, 2, 4},
	}
	for _, b := range budgets {
		for _, transit := range []int{1, 4} {
			far, g := chainNet(t, b.backend, transit, 1, 0)
			got := int(testing.AllocsPerRun(50, func() { far.Join(g, 0); far.Leave(g, 0) }))
			far.Join(g, 0)
			member := far.net.Domain(wire.DomainID(transit + 3))
			member.Send(g, member.HostAddr(0), "x", 0)
			if len(far.Received()) == 0 {
				t.Fatalf("%s: a join from the far end receives nothing; the budget would be vacuous", b.backend)
			}
			hops := transit + 1
			if budget := b.perHop*hops + b.constant; got > budget {
				t.Errorf("%s, %d hops to the root: %d allocations per join+leave, budget %d×%d + %d = %d",
					b.backend, hops, got, b.perHop, hops, b.constant, budget)
			}
		}
	}
}

// ringNet builds n single-router domains on a synchronous network, linked
// in a ring with a chord from every chord-th router to the one a third of
// the way round, domain 1 holding a MASC range: every router ends up with
// 2n+1 routes (a unicast and an M-RIB prefix per domain, one group range)
// and at least two ways to reach each. ob may be nil.
func ringNet(t testing.TB, backend string, n, chord int, ob *obs.Observer) *Network {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	net, err := NewNetwork(Config{Clock: clk, Seed: 7, Synchronous: true, DataPlane: backend, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	var root *Domain
	for i := 1; i <= n; i++ {
		d, err := net.AddDomain(DomainConfig{
			ID: wire.DomainID(i), Routers: []wire.RouterID{wire.RouterID(i)}, Protocol: migp.DVMRP(),
			TopLevel:   i == 1,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(i), 0, 0), Len: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			root = d
		}
	}
	link := func(a, b int) {
		if err := net.Link(wire.RouterID(a+1), wire.RouterID(b+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i < n; i += chord {
		link(i, (i+n/3)%n)
	}
	if !root.MASC().RequestSpace(256, 30*24*time.Hour) {
		t.Fatal("root's claim selection failed")
	}
	clk.RunFor(49 * time.Hour)
	if len(root.MASC().Holdings()) == 0 {
		t.Fatal("root won no range")
	}
	return net
}

// flap takes the ring link between routers a and a+1 down and up again.
func flap(t testing.TB, net *Network, a int) {
	if err := net.Unlink(wire.RouterID(a), wire.RouterID(a+1)); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(wire.RouterID(a), wire.RouterID(a+1)); err != nil {
		t.Fatal(err)
	}
}

// TestBIERFollowsUnicastAcrossFlap cuts and restores the chord a group's
// copies cross, on a ring with members on both sides of it: before, between
// and after, every member domain receives exactly one copy of a send and
// nobody else any. BIER's next hops live in a table derived from the
// unicast RIB, so the middle send holds only if the table follows the RIB's
// best changes; the other two backends run the same script to the same
// member sets.
func TestBIERFollowsUnicastAcrossFlap(t *testing.T) {
	const n, chord = 12, 4 // chords 1–5, 5–9, 9–1; domain 1 is the root
	members := []wire.DomainID{3, 5, 6, 8, 11}
	for _, backend := range dataplane.Names() {
		net := ringNet(t, backend, n, chord, nil)
		lease, err := net.Domain(1).NewGroup(24 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			net.Domain(m).Join(lease.Addr, 0)
		}
		send := func(when string) {
			t.Helper()
			t.Log(backend, when)
			assertExactlyOnce(t, net, lease.Addr, members, 10)
		}
		send("before the cut")
		if err := net.Unlink(1, 5); err != nil {
			t.Fatal(err)
		}
		send("chord 1–5 down")
		if err := net.Link(1, 5); err != nil {
			t.Fatal(err)
		}
		send("chord 1–5 back")
	}
}

// TestFlapAllocBudget pins what a link going down and coming back may
// allocate across the whole stack, as
//
//	perItem × route items + constant
//
// where a route item is one route announced or withdrawn to one neighbour,
// counted off the observer of an identical world. An item that is a route
// costs its decoded AS path and the receiver's own copy of it; one that
// changes the receiver's best adds at most a record for a prefix not met
// before and one domain-prepended path shared by every neighbour it goes
// on to. The rest is per message, not per item — the update and its lists
// on both sides of the wire, the receiver's batch, notes and output — and
// its share falls as updates carry more routes: 5.5 per item in all here.
// With a prefix's state in five maps and a Clone plus a prepending append
// per route per neighbour the same flap cost 11.3 per item; one more
// allocation per item fails.
func TestFlapAllocBudget(t *testing.T) {
	const n, chord, link = 12, 4, 3
	ob := obs.NewObserver()
	counted := ringNet(t, dataplane.SharedTreeName, n, chord, ob)
	flap(t, counted, link) // the first flap settles map sizes; the second is counted
	before := ob.Snapshot()
	flap(t, counted, link)
	d := ob.Snapshot().Diff(before)
	items := int(d.Total(obs.BGPAnnounce) + d.Total(obs.BGPWithdraw))
	if items < 5*n {
		t.Fatalf("a flap moved %d route items on a %d-router ring; the budget would be vacuous", items, n)
	}

	net := ringNet(t, dataplane.SharedTreeName, n, chord, nil)
	flap(t, net, link)
	got := int(testing.AllocsPerRun(5, func() { flap(t, net, link) }))
	const perItem, constant = 5, 150
	if budget := perItem*items + constant; got > budget {
		t.Errorf("%d allocations per flap of %d route items, budget %d×%d + %d = %d",
			got, items, perItem, items, constant, budget)
	}
}

// BenchmarkLinkFlap times one link of a 48-router ring with chords going
// down and coming back: two session teardowns, the withdrawals and path
// hunting they set off, two full-table Syncs and the reconvergence.
func BenchmarkLinkFlap(b *testing.B) {
	net := ringNet(b, dataplane.SharedTreeName, 48, 6, nil)
	flap(b, net, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flap(b, net, 5+i%7)
	}
}
