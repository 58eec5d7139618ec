package migp_test

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
)

var (
	grp  = addr.MakeAddr(224, 1, 2, 3)
	grp1 = addr.MakeAddr(224, 1, 1, 1) // the group of the per-protocol files
	src  = addr.MakeAddr(10, 0, 0, 1)
)

// line returns the path graph 0-1-…-(n-1).
func line(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i < n-1; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID(i+1))
	}
	return g
}

func line5() *topology.Graph { return line(5) }

// hopsTo runs one Deliver over a fresh paths provider and returns the hop
// count per member, in the order given (which must be ascending).
func hopsTo(p *migp.Protocol, g *topology.Graph, entry migp.Node, s, group addr.Addr, members ...migp.Node) []int {
	hops := make([]int, len(members))
	p.Deliver(migp.NewPaths(g), entry, s, group, members, hops)
	return hops
}

func allProtocols() map[string]*migp.Protocol {
	return map[string]*migp.Protocol{
		"dvmrp": migp.DVMRP(),
		"pimsm": migp.PIMSM(0),
		"pimdm": migp.PIMDM(0),
		"cbt":   migp.CBT(),
		"mospf": migp.MOSPF(),
	}
}

func TestAllProtocolsDeliverToAllMembers(t *testing.T) {
	g := line5()
	members := []migp.Node{0, 2, 4}
	for name, p := range allProtocols() {
		for i, h := range hopsTo(p, g, 1, src, grp, members...) {
			if h < 0 {
				t.Errorf("%s: member %v not reached", name, members[i])
			}
		}
	}
}

func TestShortestPathProtocolsUseExactDistances(t *testing.T) {
	g := line5()
	for _, name := range []string{"dvmrp", "pimdm", "mospf"} {
		p := allProtocols()[name]
		got := hopsTo(p, g, 0, src, grp, 1, 4)
		if got[0] != 1 || got[1] != 4 {
			t.Errorf("%s: hops = %v, want [1 4]", name, got)
		}
	}
}

func TestStrictRPFFlags(t *testing.T) {
	want := map[string]bool{"dvmrp": true, "pimdm": true, "mospf": true, "pimsm": false, "cbt": false}
	for name, p := range allProtocols() {
		if p.StrictRPF() != want[name] {
			t.Errorf("%s: StrictRPF = %v, want %v", name, p.StrictRPF(), want[name])
		}
	}
}

func TestProtocolNames(t *testing.T) {
	want := map[string]string{"dvmrp": "DVMRP", "pimsm": "PIM-SM", "pimdm": "PIM-DM", "cbt": "CBT", "mospf": "MOSPF"}
	for key, p := range allProtocols() {
		if p.Name() != want[key] {
			t.Errorf("%s: Name = %q", key, p.Name())
		}
	}
}

// TestSteadyStateDeliverAllocatesNothing: the second and later packet of a
// (source, group) with members unchanged costs no allocation on any of the
// five protocols — the first builds the per-flow state and the Paths rows,
// the rest read them.
func TestSteadyStateDeliverAllocatesNothing(t *testing.T) {
	paths := migp.NewPaths(line5())
	members := []migp.Node{0, 2, 4}
	hops := make([]int, len(members))
	for name, p := range allProtocols() {
		p.Deliver(paths, 1, src, grp, members, hops)
		if n := testing.AllocsPerRun(100, func() { p.Deliver(paths, 1, src, grp, members, hops) }); n != 0 {
			t.Errorf("%s: steady-state Deliver allocates %v per packet, want 0", name, n)
		}
	}
}

func TestDVMRPFloodsOncePerSourceGroup(t *testing.T) {
	g := line5()
	p := migp.DVMRP()
	hopsTo(p, g, 0, src, grp, 4)
	hopsTo(p, g, 0, src, grp, 4)
	if p.Floods() != 1 {
		t.Fatalf("floods = %d, want 1", p.Floods())
	}
	// A different source floods again.
	hopsTo(p, g, 0, addr.MakeAddr(10, 0, 0, 2), grp, 4)
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2", p.Floods())
	}
	// A graft clears prune state: next packet floods.
	p.Graft(src, grp)
	hopsTo(p, g, 0, src, grp, 4)
	if p.Floods() != 3 {
		t.Fatalf("floods after graft = %d, want 3", p.Floods())
	}
}

func TestPIMDMPruneExpiry(t *testing.T) {
	g := line5()
	p := migp.PIMDM(2) // prunes live for 2 packets
	for i := 0; i < 6; i++ {
		hopsTo(p, g, 0, src, grp, 4)
	}
	// Packets: flood, pruned, pruned(expires), flood, pruned, pruned.
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2", p.Floods())
	}
}

func TestPIMSMTrianglePathViaRP(t *testing.T) {
	g := line5()
	p := migp.PIMSM(0)
	rp := migp.HashGroup(grp, g.NumDomains())
	got := hopsTo(p, g, 0, src, grp, 4)
	distEntryToRP := int(rp) // on a line from node 0, dist = node index
	want := distEntryToRP + (4 - int(rp))
	if rp > 4 {
		t.Fatalf("rp = %v out of range", rp)
	}
	if got[0] != want {
		t.Fatalf("hops via RP %v = %d, want %d", rp, got[0], want)
	}
}

func TestPIMSMSPTSwitchover(t *testing.T) {
	g := line5()
	p := migp.PIMSM(1) // switch after 1 packet
	first := hopsTo(p, g, 0, src, grp, 4)
	second := hopsTo(p, g, 0, src, grp, 4)
	if second[0] > first[0] {
		t.Fatalf("SPT switchover made the path longer: %d → %d", first[0], second[0])
	}
	if second[0] != 4 { // shortest path on the line
		t.Fatalf("post-switch hops = %d, want 4", second[0])
	}
}

func TestCBTBidirectionalShortcut(t *testing.T) {
	// Star: center 0, leaves 1..4. Core anywhere; path between two leaves
	// along the tree is 2 (leaf-center-leaf) unless one endpoint is the
	// core side. With bidirectional forwarding, entry at leaf 1 reaching
	// member leaf 2 must never exceed dist via core.
	g := topology.New(5)
	for i := 1; i < 5; i++ {
		g.AddLink(0, topology.DomainID(i))
	}
	p := migp.CBT()
	core := migp.HashGroup(grp, g.NumDomains())
	got := hopsTo(p, g, 1, src, grp, 2)
	wantMax := 2 // leaf→hub→leaf
	if core == 1 || core == 2 {
		wantMax = 2
	}
	if got[0] > wantMax {
		t.Fatalf("CBT path = %d (core %v), want <= %d (bidirectional shortcut)", got[0], core, wantMax)
	}
	// Compare with PIM-SM from the same entry: unidirectional must be
	// >= bidirectional.
	sm := hopsTo(migp.PIMSM(0), g, 1, src, grp, 2)
	if sm[0] < got[0] {
		t.Fatalf("unidirectional (%d) beat bidirectional (%d)", sm[0], got[0])
	}
}

func TestMOSPFMembershipFloods(t *testing.T) {
	g := line5()
	p := migp.MOSPF()
	hopsTo(p, g, 0, src, grp, 4)
	hopsTo(p, g, 0, src, grp, 4)
	if p.Floods() != 1 {
		t.Fatalf("floods = %d, want 1 (unchanged membership)", p.Floods())
	}
	hopsTo(p, g, 0, src, grp, 2, 4)
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2 (membership changed)", p.Floods())
	}
	// The same set in a fresh slice is no change.
	hopsTo(p, g, 0, src, grp, 2, 4)
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2 (same membership)", p.Floods())
	}
}

func TestHashGroupStableAndInRange(t *testing.T) {
	for n := 1; n < 50; n++ {
		a := migp.HashGroup(grp, n)
		b := migp.HashGroup(grp, n)
		if a != b {
			t.Fatal("hash must be deterministic")
		}
		if int(a) < 0 || int(a) >= n {
			t.Fatalf("hash %d out of range [0,%d)", a, n)
		}
	}
	if migp.HashGroup(grp, 0) != 0 {
		t.Fatal("n=0 should map to 0")
	}
	// Different groups should spread (not all identical) over 16 nodes.
	seen := map[migp.Node]bool{}
	for i := 0; i < 64; i++ {
		seen[migp.HashGroup(addr.Addr(0xe0000000+i*9973), 16)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("hash spread too poor: %d distinct of 16", len(seen))
	}
}

func TestTreePath(t *testing.T) {
	// Tree rooted at 0 over the line 0-1-2-3-4.
	g := line5()
	dist, parent := g.BFS(0)
	cases := []struct{ a, b, want migp.Node }{
		{0, 4, 4}, {4, 0, 4}, {2, 2, 0}, {1, 3, 2},
	}
	for _, c := range cases {
		if got := migp.TreePath(dist, parent, c.a, c.b); got != int(c.want) {
			t.Errorf("TreePath(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Unreachable node.
	g2 := topology.New(3)
	g2.AddLink(0, 1)
	d2, p2 := g2.BFS(0)
	if migp.TreePath(d2, p2, 0, 2) != -1 {
		t.Error("unreachable TreePath should be -1")
	}
}

func TestTreePathLCAOffCorePath(t *testing.T) {
	// Y-shape: 0-1, 1-2, 1-3. Root at 0. Path 2→3 via LCA 1 = 2 hops,
	// NOT via the root (which would be 4).
	g := topology.New(4)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(1, 3)
	dist, parent := g.BFS(0)
	if got := migp.TreePath(dist, parent, 2, 3); got != 2 {
		t.Fatalf("LCA path = %d, want 2", got)
	}
}
