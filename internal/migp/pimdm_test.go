package migp_test

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
)

func TestFloodThenPruneCycle(t *testing.T) {
	g := line(4)
	p := migp.PIMDM(3)
	// flood, 3 suppressed, flood, 3 suppressed → 2 floods in 8 packets
	for i := 0; i < 8; i++ {
		hopsTo(p, g, 0, src, grp1, 3)
	}
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want 2", p.Floods())
	}
}

func TestZeroPruneLifeNeverRefloods(t *testing.T) {
	g := line(4)
	p := migp.PIMDM(0)
	for i := 0; i < 50; i++ {
		hopsTo(p, g, 0, src, grp1, 3)
	}
	if p.Floods() != 1 {
		t.Fatalf("floods = %d, want 1", p.Floods())
	}
}

func TestDeliveryHopsAreShortestPath(t *testing.T) {
	g := line(5)
	p := migp.PIMDM(2)
	got := hopsTo(p, g, 1, src, grp1, 0, 4)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("hops = %v", got)
	}
}

func TestPerSourcePruneState(t *testing.T) {
	g := line(4)
	p := migp.PIMDM(0)
	hopsTo(p, g, 0, src, grp1)
	hopsTo(p, g, 0, addr.MakeAddr(10, 0, 0, 2), grp1)
	if p.Floods() != 2 {
		t.Fatalf("floods = %d, want one per source", p.Floods())
	}
}

func TestPIMDMStrictRPFContract(t *testing.T) {
	if !migp.PIMDM(0).StrictRPF() {
		t.Fatal("PIM-DM is flood-and-prune: strict RPF")
	}
}
