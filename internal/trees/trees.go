// Package trees models the inter-domain multicast distribution trees whose
// quality the paper compares in §5.4 / Figure 4:
//
//   - source-rooted shortest-path trees (DVMRP, PIM-DM, MOSPF) — the
//     baseline, ratio 1.0;
//   - unidirectional shared trees (PIM-SM): data climbs from the sender to
//     the root/RP and descends the tree to each receiver;
//   - bidirectional shared trees (BGMP, CBT): data enters the tree at the
//     nearest on-tree router on the sender's path toward the root and
//     flows along tree branches in both directions;
//   - hybrid trees (BGMP with §5.3 source-specific branches): receivers
//     join toward the source; the branch stops at the first on-tree router
//     or the source domain.
//
// Path lengths are counted in inter-domain hops on a topology.Graph, as in
// the paper's simulation.
package trees

import (
	"mascbgmp/internal/topology"
)

// RootPaths is the shortest-path tree toward one root domain: the route a
// BGMP group join follows from any domain (the G-RIB next hop toward the
// root). It is immutable once built, so every group rooted in the same
// domain shares one.
type RootPaths struct {
	root   topology.DomainID
	dist   []int
	parent []topology.DomainID
}

// NewRootPaths runs the one BFS from root that all its groups' trees use.
func NewRootPaths(g *topology.Graph, root topology.DomainID) *RootPaths {
	dist, parent := g.BFS(root)
	return &RootPaths{root: root, dist: dist, parent: parent}
}

// Dist returns d's hop distance to the root, -1 when unreachable.
func (p *RootPaths) Dist(d topology.DomainID) int { return p.dist[d] }

// SharedTree is a group's shared tree over the inter-domain graph: the
// union of every member's shortest path toward the root domain (§5.2).
//
// refs holds exactly the on-tree domains. A domain's count is the number
// of Joins it has outstanding as a member plus the number of its on-tree
// children — what keeps a BGMP router's (*,G) entry alive. The root
// carries one permanent reference, so it is on the tree from the start
// and is never pruned. A map rather than a per-domain slice: a churn run
// holds thousands of live trees over thousands of domains, each touching
// a few dozen, so a tree costs memory in proportion to its size.
type SharedTree struct {
	paths *RootPaths
	refs  map[topology.DomainID]int
}

// NewTree returns a memberless tree: the root domain alone.
func (p *RootPaths) NewTree() *SharedTree {
	return &SharedTree{paths: p, refs: map[topology.DomainID]int{p.root: 1}}
}

// NewShared builds the shared tree for the given root and member domains.
// Members unreachable from the root are ignored.
func NewShared(g *topology.Graph, root topology.DomainID, members []topology.DomainID) *SharedTree {
	t := NewRootPaths(g, root).NewTree()
	for _, m := range members {
		t.Join(m)
	}
	return t
}

// Join adds member domain m. The join travels toward the root until it
// reaches a domain already on the tree; grafted is the number of domains
// it put on the tree, which is also the number of hops it traveled. A
// member that cannot reach the root is not added and grafted is -1.
func (t *SharedTree) Join(m topology.DomainID) (grafted int) {
	if t.paths.dist[m] < 0 {
		return -1
	}
	cur := m
	t.refs[cur]++
	// A count of 1 means cur was off the tree until now, so the join
	// carries on to its parent. The root's permanent reference stops the
	// climb there at the latest.
	for t.refs[cur] == 1 {
		grafted++
		cur = t.paths.parent[cur]
		t.refs[cur]++
	}
	return grafted
}

// Leave undoes one Join(m) and prunes the branch no remaining member
// needs; pruned is the number of domains taken off the tree. A Leave with
// no Join to undo — m off the tree (its Join returned -1, or never
// happened), or the root holding only its permanent reference — changes
// nothing and returns 0.
func (t *SharedTree) Leave(m topology.DomainID) (pruned int) {
	if n := t.refs[m]; n <= 0 || (m == t.paths.root && n == 1) {
		return 0
	}
	cur := m
	t.refs[cur]--
	for t.refs[cur] == 0 {
		delete(t.refs, cur)
		pruned++
		cur = t.paths.parent[cur]
		t.refs[cur]--
	}
	return pruned
}

// Root returns the tree's root domain.
func (t *SharedTree) Root() topology.DomainID { return t.paths.root }

// OnTree reports whether domain d lies on the shared tree.
func (t *SharedTree) OnTree(d topology.DomainID) bool { return t.refs[d] > 0 }

// Size returns the number of domains on the tree — the forwarding-state
// footprint of the group.
func (t *SharedTree) Size() int { return len(t.refs) }

// Attach returns the first on-tree domain on src's shortest path toward
// the root (src itself when on the tree) and the number of hops to it —
// where a non-member sender's packets reach the tree ("the border router
// simply forwards the data packets towards the root domain", §5.2). hops
// is -1 when the root is unreachable from src.
func (t *SharedTree) Attach(src topology.DomainID) (at topology.DomainID, hops int) {
	if t.paths.dist[src] < 0 {
		return topology.NoDomain, -1
	}
	cur := src
	for !t.OnTree(cur) {
		cur = t.paths.parent[cur]
		hops++
	}
	return cur, hops
}

// treeDist returns the hop count between two on-tree domains along tree
// branches (through their lowest common ancestor toward the root).
func (t *SharedTree) treeDist(a, b topology.DomainID) int {
	dist, parent := t.paths.dist, t.paths.parent
	da, db := dist[a], dist[b]
	hops := 0
	for da > db {
		a = parent[a]
		da--
		hops++
	}
	for db > da {
		b = parent[b]
		db--
		hops++
	}
	for a != b {
		a = parent[a]
		b = parent[b]
		hops += 2
	}
	return hops
}

// BidirLen returns the bidirectional-tree path length from a sender in
// domain src to a member domain m: hops to the sender's attach point, then
// along tree branches to m. It returns -1 when unreachable.
func (t *SharedTree) BidirLen(src, m topology.DomainID) int {
	if !t.OnTree(m) {
		return -1
	}
	at, h := t.Attach(src)
	if h < 0 {
		return -1
	}
	return h + t.treeDist(at, m)
}

// UniLen returns the unidirectional shared-tree path length (PIM-SM
// model): shortest path from the sender up to the root, then down the tree
// to m. distSrc must be the BFS distances from src.
func (t *SharedTree) UniLen(distSrc []int, m topology.DomainID) int {
	if !t.OnTree(m) || distSrc[t.paths.root] < 0 {
		return -1
	}
	return distSrc[t.paths.root] + t.paths.dist[m]
}

// HybridLen returns the path length with a §5.3 source-specific branch
// from member m toward src: the branch follows m's shortest path toward
// src and stops at the first on-tree domain past m (data then flows
// src→tree→branch→m) or reaches the source domain (data flows directly).
// distSrc/parentSrc must come from g.BFS(src).
func (t *SharedTree) HybridLen(src topology.DomainID, distSrc []int, parentSrc []topology.DomainID, m topology.DomainID) int {
	if !t.OnTree(m) || distSrc[m] < 0 {
		return -1
	}
	// Walk from m toward src (parentSrc points one hop closer to src).
	branchHops := 0
	cur := m
	for cur != src {
		cur = parentSrc[cur]
		branchHops++
		if cur == src {
			// Branch reached the source domain: direct shortest path.
			return distSrc[m]
		}
		if t.OnTree(cur) {
			// Branch attaches to the tree at cur.
			return t.BidirLen(src, cur) + branchHops
		}
	}
	return distSrc[m]
}

// PathLengths computes, for one sender and a member set, the per-member
// path lengths under all four models. The SPT column is the shortest-path
// distance (the paper's ratio denominator).
type PathLengths struct {
	Member topology.DomainID
	SPT    int
	Uni    int
	Bidir  int
	Hybrid int
}

// Measure computes path lengths from src to every member over the tree.
// Members equal to src or unreachable are skipped.
func Measure(g *topology.Graph, t *SharedTree, src topology.DomainID, members []topology.DomainID) []PathLengths {
	distSrc, parentSrc := g.BFS(src)
	var out []PathLengths
	for _, m := range members {
		if m == src || distSrc[m] <= 0 {
			continue
		}
		pl := PathLengths{
			Member: m,
			SPT:    distSrc[m],
			Uni:    t.UniLen(distSrc, m),
			Bidir:  t.BidirLen(src, m),
			Hybrid: t.HybridLen(src, distSrc, parentSrc, m),
		}
		if pl.Uni < 0 || pl.Bidir < 0 || pl.Hybrid < 0 {
			continue
		}
		out = append(out, pl)
	}
	return out
}
