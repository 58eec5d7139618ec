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

// paperNet builds PaperWorld on a synchronous network: Fig 1, plus the
// F2–A4 link of Fig 3(b) when withF2A4 is set.
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
	w := PaperWorld()
	if !withF2A4 {
		w.Links = w.Links[:len(w.Links)-1]
	}
	for i := range w.Domains {
		w.Domains[i].Protocol = proto()
	}
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := w.Build(Config{
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
	return n, clk
}

// allocateSpaces walks the MASC hierarchy: A claims a /16, then B and C
// claim sub-ranges, then F, G, H. Each level needs a waiting period.
func allocateSpaces(t *testing.T, n *Network, clk *simclock.Sim) {
	t.Helper()
	claimSpace(t, clk, 1<<16, 60*24*time.Hour, n.Domain(1))
	claimSpace(t, clk, 256, 30*24*time.Hour, n.Domain(2), n.Domain(3))
	noViolations(t, "MASC ranges after the waits", violations(n, nil, nil))
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

// assertExactlyOnce fails t with every deliveryViolations line.
func assertExactlyOnce(t *testing.T, n *Network, group addr.Addr, members []wire.DomainID, sender wire.DomainID) {
	t.Helper()
	for _, v := range deliveryViolations(n, group, members, sender) {
		t.Error(v)
	}
}

// deliveryViolations is the steady-state delivery clause (§5.2): one packet
// sent to group from a host in domain sender — a member or not (§3) —
// arrives exactly once in every domain of members, payload, group and
// source intact, and nowhere else. Each member domain is taken to hold one
// member host. The delivery logs are cleared on the way in and out. It
// returns one line per domain that breaks the clause.
func deliveryViolations(n *Network, group addr.Addr, members []wire.DomainID, sender wire.DomainID) []string {
	for _, d := range n.Domains() {
		d.ClearReceived()
	}
	var out []string
	from := n.Domain(sender)
	src, payload := from.HostAddr(1), fmt.Sprintf("exactly once from %d", sender)
	from.Send(group, src, payload, 0)
	for _, d := range n.Domains() {
		got := d.Received()
		d.ClearReceived()
		switch {
		case !slices.Contains(members, d.ID):
			if len(got) != 0 {
				out = append(out, fmt.Sprintf("%s: domain %d has no member of %v and received %v", n.cfg.DataPlane, d.ID, group, got))
			}
		case len(got) != 1:
			out = append(out, fmt.Sprintf("%s: member domain %d received %d copies of one packet from domain %d, want exactly 1: %v",
				n.cfg.DataPlane, d.ID, len(got), sender, got))
		case got[0].Group != group || got[0].Source != src || got[0].Payload != payload:
			out = append(out, fmt.Sprintf("%s: member domain %d received %+v, want %q from %v to %v", n.cfg.DataPlane, d.ID, got[0], payload, src, group))
		}
	}
	return out
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

// paperNetBackends runs fn on the Fig 3(a) group once per forwarding
// backend, and holds the group's tree to treeViolations after it.
func paperNetBackends(t *testing.T, fn func(n *Network, g addr.Addr)) {
	t.Helper()
	for _, backend := range dataplane.Names() {
		n, clk := paperNetDP(t, false, false, backend, nil)
		g := establishGroup(t, n, clk)
		fn(n, g)
		noViolations(t, backend, violations(n, nil, []addr.Addr{g}))
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
// Each cell also holds its MASC ranges to mascViolations (in
// allocateSpaces) and its tree to treeViolations, after set-up and after
// the sends.
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
						noViolations(t, "after set-up", violations(n, nil, []addr.Addr{g}))
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
						noViolations(t, "after the sends", violations(n, nil, []addr.Addr{g}))
					})
				}
			}
		}
	}
}

// starWorld is three DVMRP domains: domain 1 (border routers 11 and 12) is
// top-level and the MASC parent of domains 2 (router 21, linked to 11) and
// 3 (router 31, linked to 12).
func starWorld() World {
	w := World{
		Links:    [][2]wire.RouterID{{21, 11}, {31, 12}},
		Children: [][2]wire.DomainID{{1, 2}, {1, 3}},
	}
	for i, rs := range [][]wire.RouterID{{11, 12}, {21}, {31}} {
		id := wire.DomainID(i + 1)
		w.Domains = append(w.Domains, DomainConfig{ID: id, Routers: rs, Protocol: migp.DVMRP(), TopLevel: id == 1,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(id), 0, 0), Len: 16}})
	}
	return w
}

// asyncNet builds starWorld peered over loopback TCP with background
// receive loops, on the named data plane: domain 2 roots a group, and
// domain 3 has a member of it. ob may be nil.
func asyncNet(t *testing.T, backend string, ob *obs.Observer) (*Network, addr.Addr) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	n, err := starWorld().Build(Config{Clock: clk, Seed: 42, DataPlane: backend, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	claimSpace(t, clk, 1<<16, 60*24*time.Hour, n.Domain(1))
	claimSpace(t, clk, 256, 30*24*time.Hour, n.Domain(2))
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after MASC: %v", err)
	}
	lease, err := n.Domain(2).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	n.Domain(3).Join(lease.Addr, 0)
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after join: %v", err)
	}
	return n, lease.Addr
}

func TestAsyncNetworkConverges(t *testing.T) {
	// The paper's pipeline over loopback TCP with background receive
	// loops: slower, nondeterministic ordering, same outcome.
	n, g := asyncNet(t, dataplane.SharedTreeName, nil)
	src := n.Domain(2).HostAddr(1)
	n.Domain(2).Send(g, src, "async hello", 0)
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
