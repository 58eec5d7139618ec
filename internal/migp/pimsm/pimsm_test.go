package pimsm

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

func TestRPDeterministicPerGroup(t *testing.T) {
	g := line(8)
	p := New(0)
	rp1 := p.RP(g, grp)
	rp2 := p.RP(g, grp)
	if rp1 != rp2 {
		t.Fatal("RP must be stable for a group")
	}
	if int(rp1) < 0 || int(rp1) >= 8 {
		t.Fatalf("RP %v out of range", rp1)
	}
}

func TestPathAlwaysViaRPWithoutSwitchover(t *testing.T) {
	g := line(8)
	p := New(0)
	rp := int(p.RP(g, grp))
	got := hopsTo(p, g, 0, src, grp, 7)
	want := rp + (7 - rp) // entry 0 → RP → member 7 on a line
	if rp > 7 {
		want = rp + (rp - 7)
	}
	if got[0] != want {
		t.Fatalf("hops = %d, want %d (via RP %d)", got[0], want, rp)
	}
}

func TestSwitchoverNeverWorsens(t *testing.T) {
	g := topology.ASGraph(60, 10, 3)
	p := New(1)
	members := []migp.Node{11, 23, 45}
	first := hopsTo(p, g, 2, src, grp, members...)
	second := hopsTo(p, g, 2, src, grp, members...)
	for i, m := range members {
		if second[i] > first[i] {
			t.Fatalf("switchover worsened member %v: %d → %d", m, first[i], second[i])
		}
	}
}

func TestSwitchoverIsPerSource(t *testing.T) {
	g := line(8)
	p := New(1)
	hopsTo(p, g, 0, src, grp, 7)
	hopsTo(p, g, 0, src, grp, 7) // src now on SPT
	// A different source is still on the RP tree for its first packet.
	other := addr.MakeAddr(10, 0, 0, 2)
	rp := int(p.RP(g, grp))
	got := hopsTo(p, g, 0, other, grp, 7)
	wantRP := rp + (7 - rp)
	if rp > 7 {
		wantRP = rp + (rp - 7)
	}
	if got[0] != wantRP && rp != 0 {
		t.Fatalf("new source skipped the RP tree: %d vs %d", got[0], wantRP)
	}
}

func TestNonStrictRPF(t *testing.T) {
	if New(0).StrictRPF() {
		t.Fatal("PIM-SM registers senders; any entry border is fine")
	}
}

func BenchmarkDeliverRPTree(b *testing.B) {
	paths := migp.NewPaths(topology.ASGraph(100, 20, 1))
	p := New(0)
	members := []migp.Node{3, 17, 42, 77, 99}
	hops := make([]int, len(members))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Deliver(paths, 0, src, grp, members, hops)
	}
}
