// Package migp models the Multicast Interior Gateway Protocols that run
// inside each domain (paper §5: DVMRP, PIM-SM, PIM-DM, CBT, MOSPF) and the
// fabric that connects them to the BGMP components of the domain's border
// routers.
//
// The MASC/BGMP architecture is explicitly MIGP-independent: BGMP only
// needs the interior protocol to (1) notify the group's best exit border
// router of interior joins, (2) carry joins/prunes/data between border
// routers across the domain, and (3) deliver injected packets to interior
// members, enforcing whatever RPF discipline the protocol has. Fabric
// implements that contract over an interior router graph; what differs
// between the five protocols is one table row and one hop rule each
// (Protocol, protocols.go).
package migp

import (
	"mascbgmp/internal/addr"
	"mascbgmp/internal/topology"
)

// Node is an interior router in a domain's topology.
type Node = topology.DomainID

// Paths is the one provider of interior shortest-path rows: the BFS
// distances and parents from a node, computed on first use and kept for the
// life of the graph, which must not change once a Paths is built over it.
// A Paths is not safe for concurrent use; a Fabric guards its own with
// Fabric.mu and hands it to Protocol.Deliver inside that critical section.
type Paths struct {
	g    *topology.Graph
	rows []pathRow // indexed by root node; zero until first asked for
}

type pathRow struct {
	dist   []int
	parent []Node
}

// NewPaths returns an empty provider over g.
func NewPaths(g *topology.Graph) *Paths {
	return &Paths{g: g, rows: make([]pathRow, g.NumDomains())}
}

// Nodes returns the number of interior nodes.
func (p *Paths) Nodes() int { return len(p.rows) }

// From returns the hop distances and BFS parents from root, as
// topology.Graph.BFS defines them. The rows are shared: read-only.
func (p *Paths) From(root Node) (dist []int, parent []Node) {
	r := &p.rows[root]
	if r.dist == nil {
		r.dist, r.parent = p.g.BFS(root)
	}
	return r.dist, r.parent
}

// HashGroup maps a group to an interior node, the standard "hash the group
// address over the set of routers" used to pick PIM-SM RPs and CBT cores
// (§5.1).
func HashGroup(g addr.Addr, n int) Node {
	if n <= 0 {
		return 0
	}
	x := uint32(g)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	return Node(int(x) & 0x7fffffff % n)
}

// TreePath returns the hop count between two nodes along the tree defined
// by BFS parent pointers rooted at root, or -1 when either node is outside
// the tree. It walks both nodes' root paths and meets at the lowest common
// ancestor.
func TreePath(dist []int, parent []Node, a, b Node) int {
	if dist[a] < 0 || dist[b] < 0 {
		return -1
	}
	// Walk the deeper node up until both are at equal depth, then walk
	// both up until they meet.
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
