package migp_test

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
)

func TestRPDeterministicPerGroup(t *testing.T) {
	g := line(8)
	rp1 := migp.HashGroup(grp1, g.NumDomains())
	rp2 := migp.HashGroup(grp1, g.NumDomains())
	if rp1 != rp2 {
		t.Fatal("RP must be stable for a group")
	}
	if int(rp1) < 0 || int(rp1) >= 8 {
		t.Fatalf("RP %v out of range", rp1)
	}
}

func TestPathAlwaysViaRPWithoutSwitchover(t *testing.T) {
	g := line(8)
	p := migp.PIMSM(0)
	rp := int(migp.HashGroup(grp1, g.NumDomains()))
	got := hopsTo(p, g, 0, src, grp1, 7)
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
	p := migp.PIMSM(1)
	members := []migp.Node{11, 23, 45}
	first := hopsTo(p, g, 2, src, grp1, members...)
	second := hopsTo(p, g, 2, src, grp1, members...)
	for i, m := range members {
		if second[i] > first[i] {
			t.Fatalf("switchover worsened member %v: %d → %d", m, first[i], second[i])
		}
	}
}

func TestSwitchoverIsPerSource(t *testing.T) {
	g := line(8)
	p := migp.PIMSM(1)
	hopsTo(p, g, 0, src, grp1, 7)
	hopsTo(p, g, 0, src, grp1, 7) // src now on SPT
	// A different source is still on the RP tree for its first packet.
	other := addr.MakeAddr(10, 0, 0, 2)
	rp := int(migp.HashGroup(grp1, g.NumDomains()))
	got := hopsTo(p, g, 0, other, grp1, 7)
	wantRP := rp + (7 - rp)
	if rp > 7 {
		wantRP = rp + (rp - 7)
	}
	if got[0] != wantRP && rp != 0 {
		t.Fatalf("new source skipped the RP tree: %d vs %d", got[0], wantRP)
	}
}

func TestPIMSMNonStrictRPF(t *testing.T) {
	if migp.PIMSM(0).StrictRPF() {
		t.Fatal("PIM-SM registers senders; any entry border is fine")
	}
}

func BenchmarkPIMSMDeliverRPTree(b *testing.B) {
	paths := migp.NewPaths(topology.ASGraph(100, 20, 1))
	p := migp.PIMSM(0)
	members := []migp.Node{3, 17, 42, 77, 99}
	hops := make([]int, len(members))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Deliver(paths, 0, src, grp1, members, hops)
	}
}
