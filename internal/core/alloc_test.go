package core

import (
	"slices"
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
// single-router domains on a synchronous network, plus, when behind > 0, a
// memberless hub domain off the root with behind more member domains off
// it. One group is rooted at the root domain with a member in every member
// domain. It returns the source domain and the group.
func chainNet(t *testing.T, backend string, transit, members, behind int) (*Domain, addr.Addr) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := NewNetwork(Config{Clock: clk, Seed: 7, Synchronous: true, DataPlane: backend})
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

// TestSendAllocBudget pins what one multicast send may allocate, as
//
//	3 × hops up + perHopDown × hops down + perDelivery × member deliveries
//	+ perSplit × bitstring splits + constant
//
// A peering hop costs 3 on every backend: the forwarded copy, the decoded
// *wire.Data and its payload; the hops up are those from the source to the
// root domain. On the shared tree a member delivery costs 2 (the copy
// injected into the member domain, the Delivery record's payload string)
// and the constant 3 is the packet, its payload and the root domain's own
// injection. BIER's hops down from the root carry a bitstring — 5: the
// copy forwardBits aims at the next hop and the decoded string on top —
// every router that splits one cuts the outgoing strings from 1 slab, and
// the root's own string makes the constant 5. Map-and-encap pays 4 per
// delivery (the tunnel copy the root makes and its decapsulated copy on top
// of the shared tree's 2) and its tunnels share no hop: each member behind
// the hub crosses root → hub on its own. Every row is the measured floor,
// so one more allocation anywhere on the path fails; ROADMAP item 7(a)
// tracks what is left of the overlays' rows.
//
// Each world has also been sent a MemberReport for a domain no bitstring
// can carry (wire.MaxDataBit): BIER must refuse it rather than size every
// packet's string to it, and the group's members must go on receiving
// exactly one copy.
func TestSendAllocBudget(t *testing.T) {
	budgets := []struct {
		backend                                     string
		perHopDown, perDelivery, perSplit, constant int
	}{
		{dataplane.SharedTreeName, 3, 2, 0, 3},
		{dataplane.BIERName, 5, 2, 1, 5},
		{dataplane.MapEncapName, 3, 4, 0, 4},
	}
	for _, b := range budgets {
		// transit domains, members off the root, members behind the hub
		for _, shape := range [][3]int{{1, 1, 0}, {4, 5, 0}, {2, 2, 3}} {
			transit, members, behind := shape[0], shape[1], shape[2]
			src, g := chainNet(t, b.backend, transit, members, behind)
			root := wire.RouterID(transit + 2)
			src.net.Router(root).dispatch(root+1, &wire.MemberReport{Group: g, Domain: 0xFFFFFFFF})
			from := src.HostAddr(0)
			got := int(testing.AllocsPerRun(50, func() { src.Send(g, from, "sixteen byte load", 0) }))

			up, deliveries := transit+1, members+behind
			crossings, splits := behind, 1 // of root → hub; routers with a string to split
			if behind > 0 && b.backend != dataplane.MapEncapName {
				crossings, splits = 1, 2
			}
			down := deliveries + crossings
			budget := 3*up + b.perHopDown*down + b.perDelivery*deliveries + b.perSplit*splits + b.constant
			if got > budget {
				t.Errorf("%s, shape %v: %d allocations per send, budget 3×%d + %d×%d + %d×%d + %d×%d + %d = %d", b.backend, shape,
					got, up, b.perHopDown, down, b.perDelivery, deliveries, b.perSplit, splits, b.constant, budget)
			}

			for _, d := range src.net.Domains() {
				d.ClearReceived()
			}
			src.Send(g, from, "one more", 0)
			hub := wire.DomainID(transit + 3 + members)
			for _, d := range src.net.Domains() {
				want := 0
				if d.ID > wire.DomainID(root) && d.ID != hub {
					want = 1
				}
				if got := len(d.Received()); got != want {
					t.Errorf("%s, shape %v: domain %d received %d copies of one send, want %d", b.backend, shape, d.ID, got, want)
				}
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
		src := net.Domain(10)
		send := func(when string) {
			t.Helper()
			src.Send(lease.Addr, src.HostAddr(0), when, 0)
			for _, d := range net.Domains() {
				want := 0
				if slices.Contains(members, d.ID) {
					want = 1
				}
				if got := len(d.Received()); got != want {
					t.Errorf("%s, %s: domain %d received %d copies, want %d", backend, when, d.ID, got, want)
				}
				d.ClearReceived()
			}
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
