package core

import (
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// failoverNet builds a triangle with a redundant path to the root domain:
//
//	R (root, routers 11 12) — T (transit, 21 22) — M (member, 31)
//	 \__________________________________________/
//	            direct link 12–31
//
// M's best path to R is the direct link; when it fails, BGP fails over to
// the transit path and BGMP must re-attach the tree.
func failoverNet(t *testing.T) (*Network, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := NewNetwork(Config{Clock: clk, Seed: 3, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []DomainConfig{
		{ID: 1, Routers: []wire.RouterID{11, 12}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 1, 0, 0), Len: 16}},
		{ID: 2, Routers: []wire.RouterID{21, 22}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 2, 0, 0), Len: 16}},
		{ID: 3, Routers: []wire.RouterID{31}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 3, 0, 0), Len: 16}},
	} {
		if _, err := n.AddDomain(dc); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]wire.RouterID{{11, 21}, {12, 31}, {22, 31}} {
		if err := n.Link(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	n.MASCPeerSiblings(1, 2)
	n.MASCPeerSiblings(1, 3)
	n.MASCPeerSiblings(2, 3)
	// R claims space and roots a group.
	if !n.Domain(1).MASC().RequestSpace(1<<12, 90*24*time.Hour) {
		t.Fatal("claim failed")
	}
	clk.RunFor(49 * time.Hour)
	return n, clk
}

func TestTreeRepairAfterLinkFailure(t *testing.T) {
	n, _ := failoverNet(t)
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Domain(3).Join(lease.Addr, 0)

	// Before the failure: M's border parent is the direct peer 12.
	m := n.Router(31)
	parent, _, ok := m.BGMP().GroupEntry(lease.Addr)
	if !ok || parent != bgmp.PeerTarget(12) {
		t.Fatalf("pre-failure parent = %v ok=%v, want peer 12", parent, ok)
	}
	// Baseline delivery.
	src := n.Domain(1).HostAddr(1)
	n.Domain(1).Send(lease.Addr, src, "before", 0)
	if len(n.Domain(3).Received()) != 1 {
		t.Fatal("baseline delivery failed")
	}

	// The direct link fails.
	if err := n.Unlink(12, 31); err != nil {
		t.Fatal(err)
	}
	// BGP failed over: M's G-RIB now points via the transit domain.
	e, ok := m.BGP().Lookup(wire.TableGRIB, lease.Addr)
	if !ok || e.NextHop != 22 {
		t.Fatalf("post-failure route: %+v ok=%v, want via 22", e, ok)
	}
	// BGMP repaired the tree: the parent target follows the new route.
	parent, _, ok = m.BGMP().GroupEntry(lease.Addr)
	if !ok || parent != bgmp.PeerTarget(22) {
		t.Fatalf("post-failure parent = %v ok=%v, want peer 22", parent, ok)
	}
	// Data still flows — now through the transit domain.
	n.Domain(3).ClearReceived()
	n.Domain(1).Send(lease.Addr, src, "after", 0)
	got := n.Domain(3).Received()
	if len(got) != 1 || got[0].Payload != "after" {
		t.Fatalf("post-failure delivery = %v", got)
	}
}

func TestRepairCleansOldPath(t *testing.T) {
	n, _ := failoverNet(t)
	lease, _ := n.Domain(1).NewGroup(24 * time.Hour)
	n.Domain(3).Join(lease.Addr, 0)
	n.Unlink(12, 31)

	// The old direct border (12) must not keep stale child state for M.
	_, children, ok := n.Router(12).BGMP().GroupEntry(lease.Addr)
	if ok {
		for _, c := range children {
			if c == bgmp.PeerTarget(31) {
				t.Fatal("stale child target on the failed link")
			}
		}
	}
	// The transit path holds the live branch.
	if !n.Router(22).BGMP().HasGroupState(lease.Addr) {
		t.Fatal("transit border has no tree state after repair")
	}
	if !n.Router(21).BGMP().HasGroupState(lease.Addr) {
		t.Fatal("transit-to-root border has no tree state after repair")
	}
}

func TestRouteWithdrawalTearsDownTree(t *testing.T) {
	n, _ := failoverNet(t)
	lease, _ := n.Domain(1).NewGroup(24 * time.Hour)
	n.Domain(3).Join(lease.Addr, 0)

	// Both paths fail: the group becomes unreachable and M's state must
	// be torn down rather than pointing into the void.
	n.Unlink(12, 31)
	n.Unlink(22, 31)
	if _, ok := n.Router(31).BGP().Lookup(wire.TableGRIB, lease.Addr); ok {
		t.Fatal("route should be gone")
	}
	if n.Router(31).BGMP().HasGroupState(lease.Addr) {
		t.Fatal("tree state survived total route loss")
	}
}

func TestUnlinkUnknownRouter(t *testing.T) {
	n, _ := failoverNet(t)
	if err := n.Unlink(99, 31); err == nil {
		t.Fatal("unlink of unknown router should error")
	}
}

func TestRejoinAfterHeal(t *testing.T) {
	n, _ := failoverNet(t)
	lease, _ := n.Domain(1).NewGroup(24 * time.Hour)
	n.Domain(3).Join(lease.Addr, 0)
	n.Unlink(12, 31)
	// Heal: re-link. BGP re-learns the direct path; the tree repairs back.
	if err := n.Link(12, 31); err != nil {
		t.Fatal(err)
	}
	parent, _, ok := n.Router(31).BGMP().GroupEntry(lease.Addr)
	if !ok {
		t.Fatal("no state after heal")
	}
	if parent != bgmp.PeerTarget(12) {
		t.Fatalf("parent after heal = %v, want direct peer 12", parent)
	}
	src := n.Domain(1).HostAddr(1)
	n.Domain(3).ClearReceived()
	n.Domain(1).Send(lease.Addr, src, "healed", 0)
	if len(n.Domain(3).Received()) != 1 {
		t.Fatal("delivery after heal failed")
	}
}
