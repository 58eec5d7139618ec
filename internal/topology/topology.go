// Package topology models the inter-domain (Autonomous System) graph that
// MASC/BGMP operate over.
//
// Nodes are domains; edges are inter-domain links between their border
// routers. The paper measures tree quality in inter-domain hops, so paths
// here are unweighted (BFS).
//
// The paper's evaluation topology was a 3326-node graph derived from BGP
// routing-table dumps at Oregon route-views. That data is not available to
// this reproduction, so the ASGraph generator synthesizes a deterministic
// graph with the same node count and the sparse, highly skewed degree
// distribution of the 1998 AS graph (preferential attachment with a small
// number of extra peering edges). See DESIGN.md §2 for the substitution
// rationale.
package topology

import (
	"fmt"
	"math/rand"
)

// DomainID identifies a domain (node) in a Graph. IDs are dense indices in
// [0, NumDomains).
type DomainID int

// NoDomain is the invalid DomainID, used where "no parent"/"unreachable"
// must be represented.
const NoDomain DomainID = -1

// Relation classifies a link for routing-policy purposes.
type Relation int

const (
	// RelPeer links two domains with no transit obligations.
	RelPeer Relation = iota
	// RelProviderCustomer marks a transit link (AddProviderLink).
	RelProviderCustomer
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case RelPeer:
		return "peer"
	case RelProviderCustomer:
		return "provider-customer"
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Edge is one directed half of an inter-domain adjacency as stored in the
// adjacency lists.
type Edge struct {
	To  DomainID
	Rel Relation
}

// Graph is an undirected domain graph without duplicate links or self
// loops. Construct with New; the zero value is an empty graph.
type Graph struct {
	adj [][]Edge
}

// New returns a graph with n isolated domains.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// NumDomains returns the number of domains.
func (g *Graph) NumDomains() int { return len(g.adj) }

// AddDomains appends n new domains and returns the ID of the first.
func (g *Graph) AddDomains(n int) DomainID {
	first := DomainID(len(g.adj))
	g.adj = append(g.adj, make([][]Edge, n)...)
	return first
}

// AddLink connects a and b as peers. Self-loops and duplicate links are
// ignored.
func (g *Graph) AddLink(a, b DomainID) { g.addLink(a, b, RelPeer) }

// AddProviderLink connects provider p and customer c; both halves of the
// edge carry RelProviderCustomer.
func (g *Graph) AddProviderLink(p, c DomainID) { g.addLink(p, c, RelProviderCustomer) }

func (g *Graph) addLink(a, b DomainID, rel Relation) {
	if a == b || g.HasLink(a, b) {
		return
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Rel: rel})
	g.adj[b] = append(g.adj[b], Edge{To: a, Rel: rel})
}

// RemoveLink disconnects a and b (either order), reporting whether a link
// existed. The fault experiments use this to model long-lived link failures
// at the topology level; transient faults belong to the faultinject plane.
func (g *Graph) RemoveLink(a, b DomainID) bool {
	if !g.HasLink(a, b) {
		return false
	}
	g.adj[a] = dropEdge(g.adj[a], b)
	g.adj[b] = dropEdge(g.adj[b], a)
	return true
}

func dropEdge(es []Edge, to DomainID) []Edge {
	for i, e := range es {
		if e.To == to {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// HasLink reports whether a and b are adjacent.
func (g *Graph) HasLink(a, b DomainID) bool {
	if a < 0 || b < 0 || int(a) >= len(g.adj) || int(b) >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of d. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(d DomainID) []Edge { return g.adj[d] }

// Degree returns the number of links at d.
func (g *Graph) Degree(d DomainID) int { return len(g.adj[d]) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int {
	n := 0
	for _, es := range g.adj {
		n += len(es)
	}
	return n / 2
}

// BFS computes hop distances and BFS parents from src. Unreachable domains
// have dist -1 and parent NoDomain. Neighbor order is deterministic
// (insertion order), so the shortest-path tree is reproducible.
func (g *Graph) BFS(src DomainID) (dist []int, parent []DomainID) {
	n := len(g.adj)
	dist = make([]int, n)
	parent = make([]DomainID, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = NoDomain
	}
	dist[src] = 0
	queue := make([]DomainID, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				parent[e.To] = u
				queue = append(queue, e.To)
			}
		}
	}
	return dist, parent
}

// Path returns the hop-shortest path from a to b inclusive, or nil when b is
// unreachable.
func (g *Graph) Path(a, b DomainID) []DomainID {
	dist, parent := g.BFS(a)
	if dist[b] < 0 {
		return nil
	}
	path := []DomainID{b}
	for cur := b; cur != a; {
		cur = parent[cur]
		path = append(path, cur)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is a single connected component.
// The empty graph is connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Hierarchy builds the regular provider hierarchy of the paper's Fig 2
// simulation: topLevel backbone domains, fully meshed with each other (as at
// an exchange), each with childrenPer customer domains attached by
// provider-customer links. It returns the graph, the top-level IDs, and a
// map from each top-level ID to its children.
func Hierarchy(topLevel, childrenPer int) (g *Graph, tops []DomainID, children map[DomainID][]DomainID) {
	g = New(0)
	children = map[DomainID][]DomainID{}
	tops = make([]DomainID, topLevel)
	for i := range tops {
		tops[i] = g.AddDomains(1)
	}
	for i := 0; i < topLevel; i++ {
		for j := i + 1; j < topLevel; j++ {
			g.AddLink(tops[i], tops[j])
		}
	}
	for _, t := range tops {
		for c := 0; c < childrenPer; c++ {
			id := g.AddDomains(1)
			g.AddProviderLink(t, id)
			children[t] = append(children[t], id)
		}
	}
	return g, tops, children
}

// ASGraph synthesizes an AS-like inter-domain topology with n domains using
// linear preferential attachment: each new domain attaches to 1 or 2
// existing domains chosen proportionally to degree (70 % single-homed,
// 30 % dual-homed, matching the sparsity of 1998 BGP-table graphs), then
// extraPeering additional random peering links are added between distinct
// non-adjacent domains. The result is connected and deterministic for a
// given seed.
func ASGraph(n int, extraPeering int, seed int64) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	r := rand.New(rand.NewSource(seed))
	g.AddLink(0, 1)
	// endpoints holds one entry per edge endpoint; sampling uniformly from
	// it is degree-proportional sampling.
	endpoints := []DomainID{0, 1}
	for v := DomainID(2); v < DomainID(n); v++ {
		m := 1
		if r.Float64() < 0.3 {
			m = 2
		}
		attached := map[DomainID]bool{}
		for len(attached) < m {
			u := endpoints[r.Intn(len(endpoints))]
			if u == v || attached[u] {
				continue
			}
			attached[u] = true
			g.AddProviderLink(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	maxExtra := n*(n-1)/2 - g.NumLinks()
	if extraPeering > maxExtra {
		extraPeering = maxExtra
	}
	for added := 0; added < extraPeering; {
		a := DomainID(r.Intn(n))
		b := DomainID(r.Intn(n))
		if a == b || g.HasLink(a, b) {
			continue
		}
		g.AddLink(a, b)
		added++
	}
	return g
}
