package dvmrp

import (
	"slices"
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
func hopsTo(p *migp.Protocol, g *topology.Graph, entry migp.Node, s, group addr.Addr, members ...migp.Node) []int {
	hops := make([]int, len(members))
	p.Deliver(migp.NewPaths(g), entry, s, group, members, hops)
	return hops
}

func TestReverseShortestPathDelivery(t *testing.T) {
	g := line(6)
	p := New()
	got := hopsTo(p, g, 0, src, grp, 1, 3, 5)
	if want := []int{1, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("hops = %v, want %v", got, want)
	}
}

func TestUnreachableMemberOmitted(t *testing.T) {
	g := topology.New(3)
	g.AddLink(0, 1) // node 2 isolated
	p := New()
	got := hopsTo(p, g, 0, src, grp, 1, 2)
	if got[1] >= 0 {
		t.Fatal("unreachable member delivered")
	}
	if got[0] != 1 {
		t.Fatal("reachable member missed")
	}
}

func TestFloodAccountingPerSourceGroup(t *testing.T) {
	g := line(4)
	p := New()
	hopsTo(p, g, 0, src, grp)
	hopsTo(p, g, 0, src, grp)
	other := addr.MakeAddr(224, 2, 2, 2)
	hopsTo(p, g, 0, src, other)
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2 (one per (S,G))", p.Floods())
	}
}

func TestGraftUnknownPairHarmless(t *testing.T) {
	p := New()
	p.Graft(src, grp) // nothing flooded yet: no-op
	if p.Floods() != 0 {
		t.Fatal("graft must not count as a flood")
	}
}

func TestStrictRPFContract(t *testing.T) {
	if !New().StrictRPF() {
		t.Fatal("DVMRP must be strict-RPF — BGMP's encapsulation depends on it")
	}
}

func BenchmarkDeliver(b *testing.B) {
	paths := migp.NewPaths(topology.ASGraph(100, 20, 1))
	p := New()
	members := []migp.Node{3, 17, 42, 77, 99}
	hops := make([]int, len(members))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Deliver(paths, 0, src, grp, members, hops)
	}
}
