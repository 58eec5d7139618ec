package pimdm

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

func TestFloodThenPruneCycle(t *testing.T) {
	g := line(4)
	p := New(3)
	// flood, 3 suppressed, flood, 3 suppressed → 2 floods in 8 packets
	for i := 0; i < 8; i++ {
		hopsTo(p, g, 0, src, grp, 3)
	}
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2", p.Floods())
	}
}

func TestZeroPruneLifeNeverRefloods(t *testing.T) {
	g := line(4)
	p := New(0)
	for i := 0; i < 50; i++ {
		hopsTo(p, g, 0, src, grp, 3)
	}
	if p.Floods() != 1 {
		t.Fatalf("floods = %d, want 1", p.Floods())
	}
}

func TestDeliveryHopsAreShortestPath(t *testing.T) {
	g := line(5)
	p := New(2)
	got := hopsTo(p, g, 1, src, grp, 0, 4)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("hops = %v", got)
	}
}

func TestPerSourcePruneState(t *testing.T) {
	g := line(4)
	p := New(0)
	hopsTo(p, g, 0, src, grp)
	hopsTo(p, g, 0, addr.MakeAddr(10, 0, 0, 2), grp)
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want one per source", p.Floods())
	}
}

func TestStrictRPFContract(t *testing.T) {
	if !New(0).StrictRPF() {
		t.Fatal("PIM-DM is flood-and-prune: strict RPF")
	}
}
