package core

import (
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/migp/dvmrp"
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
