package mospf

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
)

var (
	grp = addr.MakeAddr(224, 1, 1, 1)
	src = addr.MakeAddr(10, 0, 0, 1)
)

func line(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i < n-1; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID(i+1))
	}
	return g
}

// hopsTo runs one Deliver over a fresh paths provider and returns the hop
// count per member, in the order given (which must be ascending).
func hopsTo(p *Protocol, g *topology.Graph, entry migp.Node, s, group addr.Addr, members ...migp.Node) []int {
	hops := make([]int, len(members))
	p.Deliver(migp.NewPaths(g), entry, s, group, members, hops)
	return hops
}

func TestExactShortestPaths(t *testing.T) {
	g := line(6)
	p := New()
	got := hopsTo(p, g, 2, src, grp, 0, 5)
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("hops = %v", got)
	}
}

func TestMembershipLSAPerChange(t *testing.T) {
	g := line(6)
	p := New()
	hopsTo(p, g, 0, src, grp, 5)
	hopsTo(p, g, 0, src, grp, 5)
	if p.MembershipFloods() != 1 {
		t.Fatalf("LSAs = %d, want 1", p.MembershipFloods())
	}
	hopsTo(p, g, 0, src, grp, 3, 5)
	hopsTo(p, g, 0, src, grp, 3, 5) // same set, a fresh slice
	if p.MembershipFloods() != 2 {
		t.Fatalf("LSAs = %d, want 2", p.MembershipFloods())
	}
	hopsTo(p, g, 0, src, grp, 3)
	if p.MembershipFloods() != 3 {
		t.Fatalf("LSAs = %d, want 3 (shrink is a change)", p.MembershipFloods())
	}
}

func TestPerGroupLSATracking(t *testing.T) {
	g := line(6)
	p := New()
	hopsTo(p, g, 0, src, grp, 5)
	hopsTo(p, g, 0, src, addr.MakeAddr(224, 2, 2, 2), 5)
	if p.MembershipFloods() != 2 {
		t.Fatalf("LSAs = %d, want one per group", p.MembershipFloods())
	}
}

func TestStrictRPFContract(t *testing.T) {
	if !New().StrictRPF() {
		t.Fatal("MOSPF computes source-rooted trees: strict RPF")
	}
}
