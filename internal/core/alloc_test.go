package core

import (
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/migp/dvmrp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// chainNet builds source → transit×k → root → m member domains out of
// single-router domains on a synchronous network, with one group rooted at
// the root domain and a member in every member domain. It returns the
// source domain and the group.
func chainNet(t *testing.T, backend string, transit, members int) (*Domain, addr.Addr) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := NewNetwork(Config{Clock: clk, Seed: 7, Synchronous: true, DataPlane: backend})
	if err != nil {
		t.Fatal(err)
	}
	total := transit + 2 + members // source, transit..., root, members...
	doms := make([]*Domain, total)
	root := transit + 1
	for i := range doms {
		id := wire.DomainID(i + 1)
		doms[i], err = n.AddDomain(DomainConfig{
			ID: id, Routers: []wire.RouterID{wire.RouterID(id)}, Protocol: dvmrp.New(),
			TopLevel:   i == root,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(id), 0, 0), Len: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < total; i++ {
		up := i - 1
		if i > root {
			up = root // member domains hang off the root
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
	for _, d := range doms[root+1:] {
		d.Join(lease.Addr, 0)
	}
	return doms[0], lease.Addr
}

// TestSendAllocBudget pins what one multicast send may allocate, as
//
//	perHop × peering hops + perDelivery × member deliveries + constant
//
// A peering hop costs 3 on every backend: the forwarded copy, the decoded
// *wire.Data and its payload. On the shared tree a member delivery costs 2
// (the copy injected into the member domain, the Delivery record's payload
// string) and the constant 3 is the packet, its payload and the root
// domain's own injection — the measured floor, so one more allocation
// anywhere on the path fails. The overlay backends add their bitstring
// copies and tunnel headers per member; those rows carry a few allocations
// of slack. ROADMAP item 2 tracks bringing them down.
func TestSendAllocBudget(t *testing.T) {
	budgets := []struct {
		backend                       string
		perHop, perDelivery, constant int
	}{
		{dataplane.SharedTreeName, 3, 2, 3},
		{dataplane.BIERName, 3, 8, 9},
		{dataplane.MapEncapName, 3, 5, 7},
	}
	for _, b := range budgets {
		for _, shape := range [][2]int{{1, 1}, {4, 5}} {
			transit, members := shape[0], shape[1]
			src, g := chainNet(t, b.backend, transit, members)
			from := src.HostAddr(0)
			got := int(testing.AllocsPerRun(50, func() { src.Send(g, from, "sixteen byte load", 0) }))
			if last := src.net.Domain(wire.DomainID(transit + 2 + members)); len(last.Received()) == 0 {
				t.Fatalf("%s: the chain delivers nothing; the budget would be vacuous", b.backend)
			}
			hops := transit + 1 + members
			budget := b.perHop*hops + b.perDelivery*members + b.constant
			if got > budget {
				t.Errorf("%s, %d transit hops, %d member domains: %d allocations per send, budget %d×%d + %d×%d + %d = %d",
					b.backend, transit, members, got, b.perHop, hops, b.perDelivery, members, b.constant, budget)
			}
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
			far, g := chainNet(t, b.backend, transit, 1)
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
func ringNet(t testing.TB, n, chord int, ob *obs.Observer) *Network {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	net, err := NewNetwork(Config{Clock: clk, Seed: 7, Synchronous: true, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	var root *Domain
	for i := 1; i <= n; i++ {
		d, err := net.AddDomain(DomainConfig{
			ID: wire.DomainID(i), Routers: []wire.RouterID{wire.RouterID(i)}, Protocol: dvmrp.New(),
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
	counted := ringNet(t, n, chord, ob)
	flap(t, counted, link) // the first flap settles map sizes; the second is counted
	before := ob.Snapshot()
	flap(t, counted, link)
	d := ob.Snapshot().Diff(before)
	items := int(d.Total(obs.BGPAnnounce.String()) + d.Total(obs.BGPWithdraw.String()))
	if items < 5*n {
		t.Fatalf("a flap moved %d route items on a %d-router ring; the budget would be vacuous", items, n)
	}

	net := ringNet(t, n, chord, nil)
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
	net := ringNet(b, 48, 6, nil)
	flap(b, net, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flap(b, net, 5+i%7)
	}
}
