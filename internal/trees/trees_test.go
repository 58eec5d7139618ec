package trees

import (
	"math/rand"
	"testing"

	"mascbgmp/internal/topology"
)

// line returns the path graph 0-1-...-n-1.
func line(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i < n-1; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID(i+1))
	}
	return g
}

func TestSharedTreeMarksJoinPaths(t *testing.T) {
	g := line(6)
	// Root at 0, members {3, 5}: tree = 0..5 (all on the member paths).
	tr := NewShared(g, 0, []topology.DomainID{3, 5})
	for d := 0; d <= 5; d++ {
		if !tr.OnTree(topology.DomainID(d)) {
			t.Fatalf("domain %d should be on tree", d)
		}
	}
	if tr.Size() != 6 {
		t.Fatalf("Size = %d", tr.Size())
	}
	// Root at 0, member {2}: 3..5 off tree.
	tr2 := NewShared(g, 0, []topology.DomainID{2})
	if tr2.OnTree(4) {
		t.Fatal("4 must be off tree")
	}
	if tr2.Size() != 3 {
		t.Fatalf("Size = %d, want 3", tr2.Size())
	}
}

func TestJoinLeaveGraftAndPrune(t *testing.T) {
	// Y graph off a stem: 0 - 1 - 2 - 3
	//                              `- 4
	g := line(4)
	g.AddLink(2, g.AddDomains(1))
	tr := NewRootPaths(g, 0).NewTree()
	if tr.Size() != 1 || !tr.OnTree(0) {
		t.Fatal("a memberless tree is the root alone")
	}
	if got := tr.Join(3); got != 3 {
		t.Fatalf("first Join(3) grafted %d, want 3 (3, 2, 1)", got)
	}
	if got := tr.Join(4); got != 1 {
		t.Fatalf("Join(4) grafted %d, want 1 (stops at on-tree 2)", got)
	}
	if got := tr.Join(2); got != 0 {
		t.Fatalf("Join(2) grafted %d, want 0 (already on tree)", got)
	}
	if got := tr.Leave(3); got != 1 {
		t.Fatalf("Leave(3) pruned %d, want 1 (2 still serves 4 and itself)", got)
	}
	if got := tr.Leave(4); got != 1 {
		t.Fatalf("Leave(4) pruned %d, want 1 (2 is still a member)", got)
	}
	if got := tr.Leave(2); got != 2 {
		t.Fatalf("Leave(2) pruned %d, want 2 (2 and 1; the root stays)", got)
	}
	if tr.Size() != 1 || !tr.OnTree(0) {
		t.Fatalf("tree did not drain to the root: size %d", tr.Size())
	}

	// A Leave with no Join behind it — an off-tree domain, the bare
	// root — must leave the tree as it was.
	if a, b := tr.Leave(3), tr.Leave(0); a != 0 || b != 0 || tr.Size() != 1 || !tr.OnTree(0) {
		t.Fatalf("stray Leave(3), Leave(0) pruned %d, %d; size %d", a, b, tr.Size())
	}

	island := g.AddDomains(1)
	isl := NewRootPaths(g, 0).NewTree()
	if got := isl.Join(island); got != -1 {
		t.Fatalf("Join from an unreachable domain = %d, want -1", got)
	}
	if got := isl.Leave(island); got != 0 || isl.Size() != 1 {
		t.Fatalf("Leave after a refused Join pruned %d, size %d", got, isl.Size())
	}
}

// Property: after any join/leave history the tree is the one NewShared
// builds from the surviving members, and grafts minus prunes is its size
// beyond the root.
func TestJoinLeaveMatchesStaticTree(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := topology.ASGraph(300, 40, 9)
	paths := NewRootPaths(g, 17)
	tr := paths.NewTree()
	joined := map[topology.DomainID]bool{}
	grafted, pruned := 0, 0
	for i := 0; i < 2000; i++ {
		d := topology.DomainID(r.Intn(300))
		if joined[d] {
			pruned += tr.Leave(d)
			delete(joined, d)
		} else {
			grafted += tr.Join(d)
			joined[d] = true
		}
	}
	var members []topology.DomainID
	for d := topology.DomainID(0); d < 300; d++ {
		if joined[d] {
			members = append(members, d)
		}
	}
	want := NewShared(g, 17, members)
	if tr.Size() != want.Size() || grafted-pruned != tr.Size()-1 {
		t.Fatalf("size %d (grafted %d - pruned %d), static tree %d",
			tr.Size(), grafted, pruned, want.Size())
	}
	for d := topology.DomainID(0); d < 300; d++ {
		if tr.OnTree(d) != want.OnTree(d) {
			t.Fatalf("domain %d: incremental on-tree %t, static %t", d, tr.OnTree(d), want.OnTree(d))
		}
	}
}

func TestAttach(t *testing.T) {
	g := line(6)
	tr := NewShared(g, 0, []topology.DomainID{2})
	at, hops := tr.Attach(5) // 5 → 4 → 3 → 2 (first on-tree)
	if at != 2 || hops != 3 {
		t.Fatalf("Attach(5) = %v, %d; want 2, 3", at, hops)
	}
	at, hops = tr.Attach(1) // already on tree
	if at != 1 || hops != 0 {
		t.Fatalf("Attach(1) = %v, %d", at, hops)
	}
}

func TestBidirShortcutsThroughTree(t *testing.T) {
	// Y graph: root 0; members 3 (via 1) and 4 (via 1). Sender in 3's
	// domain reaching member 4 crosses the LCA 1, not the root.
	//     0 - 1 - 3
	//         `- 4
	g := topology.New(5)
	g.AddLink(0, 1)
	g.AddLink(1, 3)
	g.AddLink(1, 4)
	tr := NewShared(g, 0, []topology.DomainID{3, 4})
	if got := tr.BidirLen(3, 4); got != 2 {
		t.Fatalf("BidirLen(3,4) = %d, want 2 (via LCA 1)", got)
	}
	// Unidirectional pays the full climb to the root and back down.
	distSrc, _ := g.BFS(3)
	if got := tr.UniLen(distSrc, 4); got != 2+2 {
		t.Fatalf("UniLen = %d, want 4 (3→0 then 0→4)", got)
	}
}

func TestBidirFromOffTreeSender(t *testing.T) {
	//  5 - 2 on a line 0-1-2-3-4, root 0, member 4: sender 5 attaches at 2.
	g := line(5)
	s := g.AddDomains(1)
	g.AddLink(s, 2)
	tr := NewShared(g, 0, []topology.DomainID{4})
	if got := tr.BidirLen(s, 4); got != 1+2 {
		t.Fatalf("BidirLen(off-tree) = %d, want 3", got)
	}
}

func TestHybridReachesSourceDomainDirect(t *testing.T) {
	// Ring of 6: root 0, member 3. Source at 4: SPT dist(4,3)=1, but the
	// tree path 4→...→3 via root is longer. The source-specific branch
	// from 3 toward 4 reaches the source domain in one hop → direct path.
	g := topology.New(6)
	for i := 0; i < 6; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID((i+1)%6))
	}
	tr := NewShared(g, 0, []topology.DomainID{3})
	distSrc, parentSrc := g.BFS(4)
	if got := tr.HybridLen(4, distSrc, parentSrc, 3); got != 1 {
		t.Fatalf("HybridLen = %d, want 1 (branch reached source domain)", got)
	}
	if bidir := tr.BidirLen(4, 3); bidir <= 1 {
		t.Fatalf("test premise broken: bidir = %d should exceed SPT", bidir)
	}
}

func TestHybridStopsAtTree(t *testing.T) {
	// 0-1-2-3 line with root 0, members {1, 3}; source 5 hangs off 2:
	//        5
	//        |
	//  0-1-2-3
	// Branch from member 3 toward source 5: first hop 2 (off... 2 IS on
	// tree since member 3's join path is 3-2-1-0). So branch attaches at
	// 2 → hybrid = flow(5→2) + 1 = 1 + 1 = 2... and SPT(5,3) = 2.
	g := line(4)
	s := g.AddDomains(1)
	g.AddLink(s, 2)
	tr := NewShared(g, 0, []topology.DomainID{1, 3})
	distSrc, parentSrc := g.BFS(s)
	if got := tr.HybridLen(s, distSrc, parentSrc, 3); got != 2 {
		t.Fatalf("HybridLen = %d, want 2", got)
	}
}

func TestMeasureSkipsSelfAndComputesAll(t *testing.T) {
	g := line(6)
	tr := NewShared(g, 0, []topology.DomainID{2, 4})
	res := Measure(g, tr, 4, []topology.DomainID{2, 4})
	if len(res) != 1 || res[0].Member != 2 {
		t.Fatalf("Measure = %+v", res)
	}
	r := res[0]
	if r.SPT != 2 {
		t.Fatalf("SPT = %d", r.SPT)
	}
	if r.Bidir != 2 { // 4 and 2 both on tree; tree path = 2
		t.Fatalf("Bidir = %d", r.Bidir)
	}
	if r.Uni != 4+2 {
		t.Fatalf("Uni = %d", r.Uni)
	}
	if r.Hybrid > r.Bidir {
		t.Fatalf("Hybrid %d > Bidir %d on a line", r.Hybrid, r.Bidir)
	}
}

func TestTreeSizeGrowsWithMembers(t *testing.T) {
	g := topology.ASGraph(500, 50, 11)
	root := topology.DomainID(0)
	small := NewShared(g, root, []topology.DomainID{10, 20})
	big := NewShared(g, root, []topology.DomainID{10, 20, 30, 40, 50, 60, 70})
	if big.Size() < small.Size() {
		t.Fatal("tree must not shrink as members are added")
	}
}

// Property: on random AS-like graphs, every model's path is at least the
// shortest path; the unidirectional path equals dist(src,root)+dist(root,m)
// exactly; bidirectional never exceeds unidirectional... (not guaranteed
// per-receiver in theory, but with both flowing through the same tree the
// bidirectional attach point shortcut can only help).
func TestModelInvariantsOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 15; iter++ {
		g := topology.ASGraph(400, 60, r.Int63())
		n := g.NumDomains()
		members := make([]topology.DomainID, 0, 20)
		for len(members) < 20 {
			members = append(members, topology.DomainID(r.Intn(n)))
		}
		root := members[0] // BGMP: initiator's domain
		tr := NewShared(g, root, members)
		src := topology.DomainID(r.Intn(n))
		distRoot, _ := g.BFS(root)
		distSrc, _ := g.BFS(src)
		for _, pl := range Measure(g, tr, src, members) {
			if pl.Uni < pl.SPT || pl.Bidir < pl.SPT || pl.Hybrid < pl.SPT {
				t.Fatalf("model beat the shortest path: %+v", pl)
			}
			if want := distSrc[root] + distRoot[pl.Member]; pl.Uni != want {
				t.Fatalf("Uni = %d, want %d", pl.Uni, want)
			}
			if pl.Bidir > pl.Uni {
				t.Fatalf("bidirectional (%d) worse than unidirectional (%d) for %+v", pl.Bidir, pl.Uni, pl)
			}
		}
	}
}

// Property: with the root at the source's own domain, the bidirectional
// tree degenerates to the shortest-path tree (the paper's NASA-broadcast
// argument, §5.1).
func TestRootAtSourceGivesShortestPaths(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g := topology.ASGraph(300, 40, 5)
	src := topology.DomainID(7)
	var members []topology.DomainID
	for len(members) < 30 {
		members = append(members, topology.DomainID(r.Intn(300)))
	}
	tr := NewShared(g, src, members)
	for _, pl := range Measure(g, tr, src, members) {
		if pl.Bidir != pl.SPT {
			t.Fatalf("root-at-source should equal SPT: %+v", pl)
		}
	}
}
