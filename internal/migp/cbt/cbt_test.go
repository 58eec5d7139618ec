package cbt

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

func star(leaves int) *topology.Graph {
	g := topology.New(leaves + 1)
	for i := 1; i <= leaves; i++ {
		g.AddLink(0, topology.DomainID(i))
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

func TestCoreStablePerGroup(t *testing.T) {
	g := star(6)
	p := New()
	if p.Core(g, grp) != p.Core(g, grp) {
		t.Fatal("core must be stable")
	}
}

func TestBidirectionalNoCoreDetour(t *testing.T) {
	// On a star, any leaf-to-leaf tree path is exactly 2 regardless of
	// where the core landed — the bidirectional property.
	g := star(6)
	p := New()
	members := []migp.Node{2, 3}
	for i, h := range hopsTo(p, g, 1, src, grp, members...) {
		m := members[i]
		want := 2
		if int(p.Core(g, grp)) == 1 || m == p.Core(g, grp) {
			// entry or member at the hub side can shorten it
			if h > 2 {
				t.Fatalf("hops[%v] = %d", m, h)
			}
			continue
		}
		if h != want {
			t.Fatalf("hops[%v] = %d, want %d", m, h, want)
		}
	}
}

func TestTreeCachedAcrossPackets(t *testing.T) {
	g := star(6)
	p := New()
	paths := migp.NewPaths(g)
	var a, b [1]int
	p.Deliver(paths, 1, src, grp, []migp.Node{3}, a[:])
	p.Deliver(paths, 1, src, grp, []migp.Node{3}, b[:])
	if a != b {
		t.Fatal("tree must be stable across packets")
	}
}

func TestDifferentGroupsMayDiffer(t *testing.T) {
	g := star(16)
	p := New()
	cores := map[migp.Node]bool{}
	for i := 0; i < 64; i++ {
		cores[p.Core(g, addr.Addr(0xe0000000+i*7919))] = true
	}
	if len(cores) < 2 {
		t.Fatal("core hash never spreads groups")
	}
}

func TestNonStrictRPF(t *testing.T) {
	if New().StrictRPF() {
		t.Fatal("CBT accepts data from any direction on the tree")
	}
}

func BenchmarkDeliverCached(b *testing.B) {
	paths := migp.NewPaths(topology.ASGraph(100, 20, 1))
	p := New()
	members := []migp.Node{3, 17, 42, 77, 99}
	hops := make([]int, len(members))
	p.Deliver(paths, 0, src, grp, members, hops) // warm the core's row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Deliver(paths, 0, src, grp, members, hops)
	}
}
