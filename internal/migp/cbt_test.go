package migp_test

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
)

func star(leaves int) *topology.Graph {
	g := topology.New(leaves + 1)
	for i := 1; i <= leaves; i++ {
		g.AddLink(0, topology.DomainID(i))
	}
	return g
}

func TestCoreStablePerGroup(t *testing.T) {
	g := star(6)
	if migp.HashGroup(grp1, g.NumDomains()) != migp.HashGroup(grp1, g.NumDomains()) {
		t.Fatal("core must be stable")
	}
}

func TestBidirectionalNoCoreDetour(t *testing.T) {
	// On a star, any leaf-to-leaf tree path is exactly 2 regardless of
	// where the core landed — the bidirectional property.
	g := star(6)
	p := migp.CBT()
	members := []migp.Node{2, 3}
	for i, h := range hopsTo(p, g, 1, src, grp1, members...) {
		m := members[i]
		want := 2
		if int(migp.HashGroup(grp1, g.NumDomains())) == 1 || m == migp.HashGroup(grp1, g.NumDomains()) {
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
	p := migp.CBT()
	paths := migp.NewPaths(g)
	var a, b [1]int
	p.Deliver(paths, 1, src, grp1, []migp.Node{3}, a[:])
	p.Deliver(paths, 1, src, grp1, []migp.Node{3}, b[:])
	if a != b {
		t.Fatal("tree must be stable across packets")
	}
}

func TestDifferentGroupsMayDiffer(t *testing.T) {
	g := star(16)
	cores := map[migp.Node]bool{}
	for i := 0; i < 64; i++ {
		cores[migp.HashGroup(addr.Addr(0xe0000000+i*7919), g.NumDomains())] = true
	}
	if len(cores) < 2 {
		t.Fatal("core hash never spreads groups")
	}
}

func TestCBTNonStrictRPF(t *testing.T) {
	if migp.CBT().StrictRPF() {
		t.Fatal("CBT accepts data from any direction on the tree")
	}
}

func BenchmarkCBTDeliverCached(b *testing.B) {
	paths := migp.NewPaths(topology.ASGraph(100, 20, 1))
	p := migp.CBT()
	members := []migp.Node{3, 17, 42, 77, 99}
	hops := make([]int, len(members))
	p.Deliver(paths, 0, src, grp1, members, hops) // warm the core's row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Deliver(paths, 0, src, grp1, members, hops)
	}
}
