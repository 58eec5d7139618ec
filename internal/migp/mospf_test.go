package migp_test

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
)

func TestExactShortestPaths(t *testing.T) {
	g := line(6)
	p := migp.MOSPF()
	got := hopsTo(p, g, 2, src, grp1, 0, 5)
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("hops = %v", got)
	}
}

func TestMembershipLSAPerChange(t *testing.T) {
	g := line(6)
	p := migp.MOSPF()
	hopsTo(p, g, 0, src, grp1, 5)
	hopsTo(p, g, 0, src, grp1, 5)
	if p.Floods() != 1 {
		t.Fatalf("LSAs = %d, want 1", p.Floods())
	}
	hopsTo(p, g, 0, src, grp1, 3, 5)
	hopsTo(p, g, 0, src, grp1, 3, 5) // same set, a fresh slice
	if p.Floods() != 2 {
		t.Fatalf("LSAs = %d, want 2", p.Floods())
	}
	hopsTo(p, g, 0, src, grp1, 3)
	if p.Floods() != 3 {
		t.Fatalf("LSAs = %d, want 3 (shrink is a change)", p.Floods())
	}
}

func TestPerGroupLSATracking(t *testing.T) {
	g := line(6)
	p := migp.MOSPF()
	hopsTo(p, g, 0, src, grp1, 5)
	hopsTo(p, g, 0, src, addr.MakeAddr(224, 2, 2, 2), 5)
	if p.Floods() != 2 {
		t.Fatalf("LSAs = %d, want one per group", p.Floods())
	}
}

func TestMOSPFStrictRPFContract(t *testing.T) {
	if !migp.MOSPF().StrictRPF() {
		t.Fatal("MOSPF computes source-rooted trees: strict RPF")
	}
}
