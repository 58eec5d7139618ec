package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// paperNet builds the internetwork of the paper's Figures 1 and 3:
//
//	Domain A (1): routers A1=11 A2=12 A3=13 A4=14 — backbone
//	Domain B (2): B1=21 B2=22 — regional, customer of A, root for the demo group
//	Domain C (3): C1=31 C2=32 — regional, customer of A
//	Domain D (4): D1=41 — backbone
//	Domain E (5): E1=51 — backbone
//	Domain F (6): F1=61 F2=62 — customer of B
//	Domain G (7): G1=71 G2=72 — customer of C
//	Domain H (8): H1=81 — customer of G
//
// Links: E1–A1, C1–A2, B1–A3, D1–A4, F1–B2, G1–C2, H1–G2, plus the F2–A4
// link of Fig 3(b) when withF2A4 is set.
func paperNet(t *testing.T, withF2A4, sourceBranches bool) (*Network, *simclock.Sim) {
	return paperNetDP(t, withF2A4, sourceBranches, "", nil)
}

// paperNetDP is paperNet with a selectable forwarding backend and an
// optional observer (the data-plane comparison tests need both).
func paperNetDP(t *testing.T, withF2A4, sourceBranches bool, dataPlane string, ob *obs.Observer) (*Network, *simclock.Sim) {
	t.Helper()
	return paperNetMIGP(t, withF2A4, sourceBranches, dataPlane, ob, migp.DVMRP)
}

// paperNetMIGP is paperNetDP with every domain's interior protocol made by
// proto.
func paperNetMIGP(t *testing.T, withF2A4, sourceBranches bool, dataPlane string, ob *obs.Observer, proto func() *migp.Protocol) (*Network, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := NewNetwork(Config{
		Clock:          clk,
		Seed:           42,
		Synchronous:    true,
		SourceBranches: sourceBranches,
		DataPlane:      dataPlane,
		Observer:       ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id wire.DomainID, routers []wire.RouterID, top bool) *Domain {
		t.Helper()
		d, err := n.AddDomain(DomainConfig{
			ID:            id,
			Routers:       routers,
			InteriorNodes: len(routers) + 2,
			Protocol:      proto(),
			TopLevel:      top,
			HostPrefix:    addr.Prefix{Base: addr.MakeAddr(10, byte(id), 0, 0), Len: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	add(1, []wire.RouterID{11, 12, 13, 14}, true) // A
	add(2, []wire.RouterID{21, 22}, false)        // B
	add(3, []wire.RouterID{31, 32}, false)        // C
	add(4, []wire.RouterID{41}, true)             // D
	add(5, []wire.RouterID{51}, true)             // E
	add(6, []wire.RouterID{61, 62}, false)        // F
	add(7, []wire.RouterID{71, 72}, false)        // G
	add(8, []wire.RouterID{81}, false)            // H

	links := [][2]wire.RouterID{
		{51, 11}, {31, 12}, {21, 13}, {41, 14}, // E1–A1, C1–A2, B1–A3, D1–A4
		{61, 22}, {71, 32}, {81, 72}, // F1–B2, G1–C2, H1–G2
	}
	if withF2A4 {
		links = append(links, [2]wire.RouterID{62, 14})
	}
	for _, l := range links {
		if err := n.Link(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}

	// MASC hierarchy: A, D, E top-level siblings; B, C under A; F under
	// B; G under C; H under G.
	for _, s := range [][2]wire.DomainID{{1, 4}, {1, 5}, {4, 5}} {
		if err := n.MASCPeerSiblings(s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, pc := range [][2]wire.DomainID{{1, 2}, {1, 3}, {2, 6}, {3, 7}, {7, 8}} {
		if err := n.MASCPeerParentChild(pc[0], pc[1]); err != nil {
			t.Fatal(err)
		}
	}
	return n, clk
}

// allocateSpaces walks the MASC hierarchy: A claims a /16, then B and C
// claim sub-ranges, then F, G, H. Each level needs a waiting period.
func allocateSpaces(t *testing.T, n *Network, clk *simclock.Sim) {
	t.Helper()
	if !n.Domain(1).MASC().RequestSpace(1<<16, 60*24*time.Hour) {
		t.Fatal("A's claim selection failed")
	}
	clk.RunFor(49 * time.Hour)
	if len(n.Domain(1).MASC().Holdings()) != 1 {
		t.Fatal("A did not win its top-level range")
	}
	for _, d := range []wire.DomainID{2, 3} {
		if !n.Domain(d).MASC().RequestSpace(256, 30*24*time.Hour) {
			t.Fatalf("domain %d claim selection failed", d)
		}
	}
	clk.RunFor(49 * time.Hour)
	for _, d := range []wire.DomainID{2, 3} {
		if len(n.Domain(d).MASC().Holdings()) != 1 {
			t.Fatalf("domain %d did not win a range", d)
		}
	}
}

func TestMASCHierarchyAllocatesNestedRanges(t *testing.T) {
	n, clk := paperNet(t, false, false)
	allocateSpaces(t, n, clk)

	aRange := n.Domain(1).MASC().Holdings()[0].Prefix
	if !aRange.IsMulticast() || aRange.Size() < 1<<16 {
		t.Fatalf("A's range %v unsuitable", aRange)
	}
	bRange := n.Domain(2).MASC().Holdings()[0].Prefix
	cRange := n.Domain(3).MASC().Holdings()[0].Prefix
	if !aRange.ContainsPrefix(bRange) || !aRange.ContainsPrefix(cRange) {
		t.Fatalf("children's ranges %v, %v outside parent %v", bRange, cRange, aRange)
	}
	if bRange.Overlaps(cRange) {
		t.Fatalf("sibling ranges overlap: %v / %v", bRange, cRange)
	}
}

func TestGRIBDistributionAndAggregation(t *testing.T) {
	n, clk := paperNet(t, false, false)
	allocateSpaces(t, n, clk)

	aRange := n.Domain(1).MASC().Holdings()[0].Prefix
	bRange := n.Domain(2).MASC().Holdings()[0].Prefix

	// D's border sees A's covering range but not B's more-specific one
	// (paper §4.2: A's routers need not propagate 224.0.128.0/24).
	d1 := n.Router(41)
	gribD := d1.BGP().Table(wire.TableGRIB)
	for _, e := range gribD {
		if e.Route.Prefix == bRange {
			t.Fatalf("B's range leaked past A's aggregation: %v", gribD)
		}
	}
	if _, ok := d1.BGP().LookupPrefix(wire.TableGRIB, aRange); !ok {
		t.Fatal("D must hold A's aggregate")
	}

	// Inside A, the more specific route directs to B: A3's lookup of an
	// address in B's range points at B1 (21).
	a3 := n.Router(13)
	e, ok := a3.BGP().Lookup(wire.TableGRIB, bRange.First())
	if !ok || e.NextHop != 21 {
		t.Fatalf("A3 lookup: %+v ok=%v, want next hop B1(21)", e, ok)
	}
	// A2 reaches B's range via A3 (13) over the internal mesh.
	a2 := n.Router(12)
	e, ok = a2.BGP().Lookup(wire.TableGRIB, bRange.First())
	if !ok || e.NextHop != 13 {
		t.Fatalf("A2 lookup: %+v ok=%v, want next hop A3(13)", e, ok)
	}
}

func TestMAASLeaseRootsGroupLocally(t *testing.T) {
	n, clk := paperNet(t, false, false)
	allocateSpaces(t, n, clk)

	b := n.Domain(2)
	lease, err := b.NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	bRange := b.MASC().Holdings()[0].Prefix
	if !bRange.Contains(lease.Addr) {
		t.Fatalf("group %v outside B's range %v", lease.Addr, bRange)
	}
}

func TestMAASDemandTriggersMASC(t *testing.T) {
	n, clk := paperNet(t, false, false)
	// Only A has space so far.
	if !n.Domain(1).MASC().RequestSpace(1<<16, 60*24*time.Hour) {
		t.Fatal("A claim failed")
	}
	clk.RunFor(49 * time.Hour)
	b := n.Domain(2)
	if _, err := b.NewGroup(time.Hour); err == nil {
		t.Fatal("lease should fail before B has a range")
	}
	// The failed lease demanded space from MASC; the claim matures after
	// the waiting period.
	clk.RunFor(49 * time.Hour)
	if _, err := b.NewGroup(time.Hour); err != nil {
		t.Fatalf("lease after MASC demand: %v", err)
	}
}

// establishGroup allocates spaces, leases a group in B, and joins members
// in the Fig 3(a) domains: B (local), C, D, F, H.
func establishGroup(t *testing.T, n *Network, clk *simclock.Sim) addr.Addr {
	t.Helper()
	allocateSpaces(t, n, clk)
	lease, err := n.Domain(2).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	g := lease.Addr
	for _, d := range []wire.DomainID{2, 3, 4, 6, 8} {
		n.Domain(d).Join(g, 1)
	}
	return g
}

// paperMembers are the domains establishGroup joins.
var paperMembers = []wire.DomainID{2, 3, 4, 6, 8}

// assertExactlyOnce is the steady-state delivery clause (§5.2; ROADMAP item
// 1(a)): one packet sent to group from a host in domain sender — a member or
// not (§3) — arrives exactly once in every domain of members, payload, group
// and source intact, and nowhere else. Each member domain is taken to hold
// one member host. The delivery logs are cleared on the way in and out.
func assertExactlyOnce(t *testing.T, n *Network, group addr.Addr, members []wire.DomainID, sender wire.DomainID) {
	t.Helper()
	for _, d := range n.Domains() {
		d.ClearReceived()
	}
	from := n.Domain(sender)
	src, payload := from.HostAddr(1), fmt.Sprintf("exactly once from %d", sender)
	from.Send(group, src, payload, 0)
	for _, d := range n.Domains() {
		got := d.Received()
		d.ClearReceived()
		if !slices.Contains(members, d.ID) {
			if len(got) != 0 {
				t.Errorf("%s: domain %d has no member of %v and received %v", n.cfg.DataPlane, d.ID, group, got)
			}
			continue
		}
		if len(got) != 1 {
			t.Errorf("%s: member domain %d received %d copies of one packet from domain %d, want exactly 1: %v",
				n.cfg.DataPlane, d.ID, len(got), sender, got)
			continue
		}
		if dv := got[0]; dv.Group != group || dv.Source != src || dv.Payload != payload {
			t.Errorf("%s: member domain %d received %+v, want %q from %v to %v", n.cfg.DataPlane, d.ID, dv, payload, src, group)
		}
	}
}

func TestBidirectionalTreeConstruction(t *testing.T) {
	n, clk := paperNet(t, false, false)
	g := establishGroup(t, n, clk)

	// B1 (root-domain border) must have (*,G) state with the MIGP as
	// parent (no BGP next hop in the root domain).
	b1 := n.Router(21)
	parent, _, ok := b1.BGMP().GroupEntry(g)
	if !ok {
		t.Fatal("B1 missing (*,G) state")
	}
	if !parent.MIGP {
		t.Fatalf("B1 parent = %v, want MIGP (root domain)", parent)
	}
	// A3 is on the tree toward B; its parent is the external peer B1.
	a3 := n.Router(13)
	parent, _, ok = a3.BGMP().GroupEntry(g)
	if !ok {
		t.Fatal("A3 missing (*,G) state")
	}
	if parent.MIGP || parent.Router != 21 {
		t.Fatalf("A3 parent = %v, want peer B1(21)", parent)
	}
	// C1 joined through A2: A2 has C1 as child.
	a2 := n.Router(12)
	_, children, ok := a2.BGMP().GroupEntry(g)
	if !ok {
		t.Fatal("A2 missing (*,G) state")
	}
	foundC1 := false
	for _, c := range children {
		if !c.MIGP && c.Router == 31 {
			foundC1 = true
		}
	}
	if !foundC1 {
		t.Fatalf("A2 children = %v, want C1(31)", children)
	}
	// F1 (under B2) is on the tree; H1 under G under C as well.
	if !n.Router(61).BGMP().HasGroupState(g) {
		t.Fatal("F1 missing state")
	}
	if !n.Router(81).BGMP().HasGroupState(g) {
		t.Fatal("H1 missing state")
	}
}

// paperNetBackends runs fn on the Fig 3(a) group once per forwarding backend.
func paperNetBackends(t *testing.T, fn func(n *Network, g addr.Addr)) {
	t.Helper()
	for _, backend := range dataplane.Names() {
		n, clk := paperNetDP(t, false, false, backend, nil)
		fn(n, establishGroup(t, n, clk))
	}
}

func TestDataDeliveryAlongBidirectionalTree(t *testing.T) {
	// A host in D (a member domain) sends: every member domain receives —
	// D itself through its interior — and non-member E receives nothing.
	paperNetBackends(t, func(n *Network, g addr.Addr) {
		assertExactlyOnce(t, n, g, paperMembers, 4)
	})
}

func TestNonMemberSenderConformsToIPModel(t *testing.T) {
	// §3: senders need not be members. A host in E (no members) sends;
	// data flows toward the root domain and down the tree to all members.
	paperNetBackends(t, func(n *Network, g addr.Addr) {
		assertExactlyOnce(t, n, g, paperMembers, 5)
	})
}

func TestNoDuplicateDeliveries(t *testing.T) {
	// Steady state stays steady: packet after packet, from members and
	// non-members in turn, one copy each and no more.
	paperNetBackends(t, func(n *Network, g addr.Addr) {
		for _, sender := range []wire.DomainID{5, 4, 1, 8, 5} {
			assertExactlyOnce(t, n, g, paperMembers, sender)
		}
	})
}

func TestLeavePrunesTree(t *testing.T) {
	n, clk := paperNet(t, false, false)
	g := establishGroup(t, n, clk)

	// H leaves; the branch through G and C2 should wither where H was the
	// only downstream interest.
	n.Domain(8).Leave(g, 1)
	if n.Router(81).BGMP().HasGroupState(g) {
		t.Fatal("H1 should have pruned its state")
	}
	if n.Router(72).BGMP().HasGroupState(g) {
		t.Fatal("G2's branch existed only for H")
	}
	// C stays: it has its own member.
	if !n.Router(31).BGMP().HasGroupState(g) {
		t.Fatal("C1 must keep state for C's member")
	}
	// Data still reaches remaining members but not H.
	assertExactlyOnce(t, n, g, []wire.DomainID{2, 3, 4, 6}, 4)
}

func TestFig3bEncapsulationAndSourceBranch(t *testing.T) {
	// Fig 3(b): with the F2–A4 link, F's interior RPF for sources in D
	// expects entry via F2, but the shared tree delivers via F1. F1 must
	// encapsulate to F2; with source branches enabled F2 joins toward the
	// source and eventually prunes the shared-tree copies.
	n, clk := paperNet(t, true, true)
	g := establishGroup(t, n, clk)

	src := n.Domain(4).HostAddr(1) // source S in domain D
	n.Domain(4).Send(g, src, "pkt1", 1)

	// F still received (encapsulated or native).
	if len(n.Domain(6).Received()) == 0 {
		t.Fatal("F missed the data entirely")
	}
	// F2 built (S,G) state toward the source.
	f2 := n.Router(62)
	if _, _, ok := f2.BGMP().SourceEntry(src, g); !ok {
		t.Fatal("F2 has no source-specific state — branch not built")
	}
	// pkt2 is the transition packet: the shared-tree (encapsulated) copy
	// and the first native branch copy may both arrive, and the native
	// arrival triggers the source-specific prune toward F1 ("F2 sends a
	// source-specific prune to F1, and starts dropping the encapsulated
	// copies", §5.3).
	n.Domain(6).ClearReceived()
	n.Domain(4).Send(g, src, "pkt2", 1)
	if got := n.Domain(6).Received(); len(got) < 1 || len(got) > 2 {
		t.Fatalf("F got %d copies of pkt2, want 1..2 during the switchover: %v", len(got), got)
	}
	// From pkt3 on the branch is in place and the shared-tree copies are
	// pruned: exactly one native copy.
	n.Domain(6).ClearReceived()
	n.Domain(4).Send(g, src, "pkt3", 1)
	if got := n.Domain(6).Received(); len(got) != 1 {
		t.Fatalf("F got %d copies of pkt3, want exactly 1: %v", len(got), got)
	}
	// And every member domain, F included, gets exactly one copy of the next
	// packet from S.
	assertExactlyOnce(t, n, g, paperMembers, 4)
}

// TestMIGPIndependenceMatrix is the paper's "can interoperate with any
// MIGP" (§3, §5) as one loop: every row of migp's protocol table, run in
// every domain of the paper's internetwork, with and without the F2–A4
// link of Fig 3(b) and source-specific branches, on every forwarding
// backend, delivers one packet from a host in each of the eight domains
// exactly once to every member domain and nowhere else — and does so again.
func TestMIGPIndependenceMatrix(t *testing.T) {
	rows := []struct {
		name string
		new  func() *migp.Protocol
	}{
		{"dvmrp", migp.DVMRP},
		{"pimsm-0", func() *migp.Protocol { return migp.PIMSM(0) }},
		{"pimsm-1", func() *migp.Protocol { return migp.PIMSM(1) }},
		{"pimdm", func() *migp.Protocol { return migp.PIMDM(2) }},
		{"cbt", migp.CBT},
		{"mospf", migp.MOSPF},
	}
	for _, row := range rows {
		for _, f2a4 := range []bool{false, true} {
			for _, sb := range []bool{false, true} {
				for _, backend := range dataplane.Names() {
					name := fmt.Sprintf("%s/f2a4=%v/sb=%v/%s", row.name, f2a4, sb, backend)
					t.Run(name, func(t *testing.T) {
						n, clk := paperNetMIGP(t, f2a4, sb, backend, nil, row.new)
						g := establishGroup(t, n, clk)
						for _, d := range n.Domains() {
							if sb {
								// The switch to a source branch takes a
								// packet or two that may arrive twice
								// (EXPERIMENTS.md Known deviation 4).
								for i := 0; i < 3; i++ {
									d.Send(g, d.HostAddr(1), "switchover", 0)
								}
							}
							assertExactlyOnce(t, n, g, paperMembers, d.ID)
							assertExactlyOnce(t, n, g, paperMembers, d.ID)
						}
					})
				}
			}
		}
	}
}

func TestAsyncNetworkConverges(t *testing.T) {
	// The same scenario over loopback TCP with background receive
	// loops: slower, nondeterministic ordering, same outcome.
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := NewNetwork(Config{Clock: clk, Seed: 42, Synchronous: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []struct {
		id      wire.DomainID
		routers []wire.RouterID
		top     bool
	}{
		{1, []wire.RouterID{11, 12}, true},
		{2, []wire.RouterID{21}, false},
		{3, []wire.RouterID{31}, false},
	} {
		if _, err := n.AddDomain(DomainConfig{
			ID: dc.id, Routers: dc.routers, Protocol: migp.DVMRP(), TopLevel: dc.top,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(dc.id), 0, 0), Len: 16},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Link(21, 11); err != nil {
		t.Fatal(err)
	}
	if err := n.Link(31, 12); err != nil {
		t.Fatal(err)
	}
	n.MASCPeerParentChild(1, 2)
	n.MASCPeerParentChild(1, 3)

	n.Domain(1).MASC().RequestSpace(1<<16, 60*24*time.Hour)
	clk.RunFor(49 * time.Hour)
	n.Domain(2).MASC().RequestSpace(256, 30*24*time.Hour)
	clk.RunFor(49 * time.Hour)
	if err := n.Quiesce(time.Second); err != nil {
		t.Fatal(err)
	}

	lease, err := n.Domain(2).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	n.Domain(3).Join(lease.Addr, 0)
	if err := n.Quiesce(time.Second); err != nil {
		t.Fatal(err)
	}

	src := n.Domain(2).HostAddr(1)
	n.Domain(2).Send(lease.Addr, src, "async hello", 0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(n.Domain(3).Received()) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := n.Domain(3).Received()
	if len(got) == 0 {
		t.Fatal("async delivery never arrived")
	}
	if got[0].Payload != "async hello" {
		t.Fatalf("payload = %q", got[0].Payload)
	}
}
