package topology

import (
	"math/rand"
	"sort"
	"testing"
)

func TestAddLinkBasics(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1)
	g.AddLink(0, 1) // duplicate ignored
	g.AddLink(1, 1) // self-loop ignored
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d, want 1", g.NumLinks())
	}
	if !g.HasLink(0, 1) || !g.HasLink(1, 0) {
		t.Fatal("link should be symmetric")
	}
	if g.HasLink(0, 2) {
		t.Fatal("0-2 must not be linked")
	}
	if g.HasLink(-1, 0) || g.HasLink(0, 99) {
		t.Fatal("out-of-range HasLink must be false")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("bad degrees")
	}
}

func TestAddDomains(t *testing.T) {
	g := New(2)
	first := g.AddDomains(3)
	if first != 2 || g.NumDomains() != 5 {
		t.Fatalf("AddDomains: first=%d n=%d", first, g.NumDomains())
	}
}

// relOf returns the relation a's adjacency list records toward b.
func relOf(t *testing.T, g *Graph, a, b DomainID) Relation {
	t.Helper()
	for _, e := range g.Neighbors(a) {
		if e.To == b {
			return e.Rel
		}
	}
	t.Fatalf("no edge %d→%d", a, b)
	return 0
}

func TestProviderRelations(t *testing.T) {
	g := New(3)
	g.AddProviderLink(0, 1)
	g.AddLink(1, 2)
	if relOf(t, g, 0, 1) != RelProviderCustomer || relOf(t, g, 1, 0) != RelProviderCustomer {
		t.Fatal("both halves of the 0–1 edge should carry the transit relation")
	}
	if relOf(t, g, 1, 2) != RelPeer || relOf(t, g, 2, 1) != RelPeer {
		t.Fatal("peers are not providers")
	}
	if len(g.Neighbors(1)) != 2 {
		t.Fatalf("Neighbors(1) = %v", g.Neighbors(1))
	}
}

func TestRelationString(t *testing.T) {
	if RelPeer.String() != "peer" || RelProviderCustomer.String() != "provider-customer" {
		t.Fatal("bad Relation strings")
	}
	if Relation(9).String() == "" {
		t.Fatal("unknown relation should still format")
	}
}

func TestBFSAndPath(t *testing.T) {
	// 0-1-2-3 chain plus shortcut 0-3
	g := New(4)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 3)
	g.AddLink(0, 3)
	dist, parent := g.BFS(0)
	want := []int{0, 1, 2, 1}
	for i, d := range want {
		if dist[i] != d {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], d)
		}
	}
	if parent[0] != NoDomain {
		t.Fatal("source has no parent")
	}
	p := g.Path(1, 3)
	if len(p) != 3 || p[0] != 1 || p[2] != 3 {
		t.Fatalf("Path(1,3) = %v", p)
	}
	if got := g.Path(0, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Path to self = %v", got)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1)
	dist, _ := g.BFS(0)
	if dist[2] != -1 {
		t.Fatal("isolated node should be unreachable")
	}
	if g.Path(0, 2) != nil {
		t.Fatal("Path to unreachable should be nil")
	}
	if g.Connected() {
		t.Fatal("graph with isolated node is not connected")
	}
}

func TestConnectedEmptyAndSingle(t *testing.T) {
	if !New(0).Connected() {
		t.Fatal("empty graph is connected")
	}
	if !New(1).Connected() {
		t.Fatal("single node is connected")
	}
}

func TestHierarchyShape(t *testing.T) {
	g, tops, children := Hierarchy(5, 4)
	if g.NumDomains() != 5+5*4 {
		t.Fatalf("NumDomains = %d", g.NumDomains())
	}
	if len(tops) != 5 {
		t.Fatalf("tops = %v", tops)
	}
	// Top-level full mesh: C(5,2)=10 links, plus 20 provider links.
	if g.NumLinks() != 10+20 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
	for _, top := range tops {
		if len(children[top]) != 4 {
			t.Fatalf("children of %d = %v", top, children[top])
		}
		for _, c := range children[top] {
			if relOf(t, g, top, c) != RelProviderCustomer {
				t.Fatalf("%d should be provider of %d", top, c)
			}
		}
	}
	if !g.Connected() {
		t.Fatal("hierarchy should be connected")
	}
}

func TestASGraphProperties(t *testing.T) {
	const n = 3326
	g := ASGraph(n, 200, 42)
	if g.NumDomains() != n {
		t.Fatalf("NumDomains = %d", g.NumDomains())
	}
	if !g.Connected() {
		t.Fatal("ASGraph must be connected")
	}
	// Sparse like the 1998 AS graph: average degree between 2 and 5.
	avg := 2 * float64(g.NumLinks()) / float64(n)
	if avg < 2 || avg > 5 {
		t.Fatalf("average degree = %.2f, want sparse (2..5)", avg)
	}
	// Skewed degrees: the max degree should be far above the average.
	maxDeg := 0
	for d := 0; d < n; d++ {
		if g.Degree(DomainID(d)) > maxDeg {
			maxDeg = g.Degree(DomainID(d))
		}
	}
	if float64(maxDeg) < 10*avg {
		t.Fatalf("max degree %d not skewed vs avg %.2f", maxDeg, avg)
	}
	// Small diameter sample: typical AS path lengths in 1998 were < 15 hops.
	dist, _ := g.BFS(0)
	for i, d := range dist {
		if d > 25 {
			t.Fatalf("dist[%d] = %d, too deep for an AS-like graph", i, d)
		}
	}
}

func TestASGraphDeterministic(t *testing.T) {
	a := ASGraph(500, 50, 7)
	b := ASGraph(500, 50, 7)
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed must give same link count")
	}
	for d := 0; d < 500; d++ {
		ea, eb := a.Neighbors(DomainID(d)), b.Neighbors(DomainID(d))
		if len(ea) != len(eb) {
			t.Fatalf("degree mismatch at %d", d)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("edge mismatch at %d[%d]", d, i)
			}
		}
	}
	c := ASGraph(500, 50, 8)
	same := a.NumLinks() == c.NumLinks()
	if same {
		// Link counts can coincide; check adjacency differs somewhere.
		diff := false
		for d := 0; d < 500 && !diff; d++ {
			ea, ec := a.Neighbors(DomainID(d)), c.Neighbors(DomainID(d))
			if len(ea) != len(ec) {
				diff = true
				break
			}
			for i := range ea {
				if ea[i] != ec[i] {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Fatal("different seeds gave identical graphs")
		}
	}
}

func TestASGraphTiny(t *testing.T) {
	if g := ASGraph(0, 10, 1); g.NumDomains() != 0 {
		t.Fatal("n=0")
	}
	if g := ASGraph(1, 10, 1); g.NumDomains() != 1 || g.NumLinks() != 0 {
		t.Fatal("n=1")
	}
	g := ASGraph(2, 10, 1) // extraPeering clamped: only 1 possible link
	if g.NumLinks() != 1 {
		t.Fatalf("n=2 links = %d", g.NumLinks())
	}
}

// Property: BFS distances satisfy the triangle property along edges —
// |dist[u]-dist[v]| <= 1 for every edge (u,v).
func TestBFSEdgeConsistencyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20; iter++ {
		g := ASGraph(200, 30, r.Int63())
		src := DomainID(r.Intn(200))
		dist, parent := g.BFS(src)
		for u := 0; u < 200; u++ {
			for _, e := range g.Neighbors(DomainID(u)) {
				du, dv := dist[u], dist[e.To]
				if du < 0 || dv < 0 {
					t.Fatal("ASGraph should be connected")
				}
				if du-dv > 1 || dv-du > 1 {
					t.Fatalf("edge (%d,%d) with dists %d,%d", u, e.To, du, dv)
				}
			}
			if DomainID(u) != src {
				p := parent[u]
				if p == NoDomain || dist[p] != dist[u]-1 {
					t.Fatalf("parent invariant broken at %d", u)
				}
			}
		}
	}
}

// Property: Path length equals BFS distance and consecutive hops are edges.
func TestPathMatchesDistProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := ASGraph(300, 40, 99)
	dist, _ := g.BFS(17)
	for iter := 0; iter < 200; iter++ {
		b := DomainID(r.Intn(300))
		p := g.Path(17, b)
		if len(p)-1 != dist[b] {
			t.Fatalf("path len %d != dist %d", len(p)-1, dist[b])
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasLink(p[i], p[i+1]) {
				t.Fatalf("path hop %v-%v is not an edge", p[i], p[i+1])
			}
		}
	}
}

func TestDegreeDistributionSorted(t *testing.T) {
	// Sanity: sorting degrees of an ASGraph yields a long tail of 1s/2s.
	g := ASGraph(1000, 100, 5)
	degs := make([]int, 1000)
	for i := range degs {
		degs[i] = g.Degree(DomainID(i))
	}
	sort.Ints(degs)
	if degs[len(degs)/2] > 3 {
		t.Fatalf("median degree %d too high for AS-like graph", degs[len(degs)/2])
	}
}

func TestRemoveLink(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1)
	g.AddProviderLink(2, 3)
	if !g.RemoveLink(1, 0) {
		t.Fatal("RemoveLink(1,0) = false, want true")
	}
	if g.HasLink(0, 1) || g.HasLink(1, 0) || g.NumLinks() != 1 {
		t.Fatal("link survived removal")
	}
	if g.RemoveLink(0, 1) {
		t.Fatal("second removal must report false")
	}
	if !g.RemoveLink(2, 3) {
		t.Fatal("provider link removal failed")
	}
	if len(g.Neighbors(2)) != 0 || len(g.Neighbors(3)) != 0 {
		t.Fatal("provider edge survived removal")
	}
	if g.RemoveLink(-1, 5) {
		t.Fatal("out-of-range RemoveLink must be false")
	}
}
