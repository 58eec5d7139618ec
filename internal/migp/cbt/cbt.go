// Package cbt implements the Core Based Trees delivery model (RFC 2189) as
// a MIGP for the MASC/BGMP architecture.
//
// CBT builds one bidirectional shared tree per group, rooted at a core
// router chosen by hashing the group over the candidate routers. Data
// flows in both directions along tree branches — the design BGMP adopts at
// the inter-domain level (§5.2) — so packets need not detour through the
// core when sender and receiver share a branch, and any entry border is
// acceptable (no strict RPF).
package cbt

import (
	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
)

// Protocol is a CBT instance for one domain. It keeps no state of its own:
// the core-rooted tree is a row of the fabric's migp.Paths.
type Protocol struct{}

// New returns a CBT instance.
func New() *Protocol { return &Protocol{} }

// Name implements migp.Protocol.
func (*Protocol) Name() string { return "CBT" }

// StrictRPF implements migp.Protocol: the bidirectional tree accepts data
// from any direction.
func (*Protocol) StrictRPF() bool { return false }

// Core returns the core router for a group.
func (p *Protocol) Core(g *topology.Graph, group addr.Addr) migp.Node {
	return migp.HashGroup(group, g.NumDomains())
}

// Deliver implements migp.Protocol: hops are counted along the
// bidirectional tree path between entry and member — through their lowest
// common ancestor on the core-rooted tree, not necessarily through the
// core itself.
func (p *Protocol) Deliver(paths *migp.Paths, entry migp.Node, source, group addr.Addr, members []migp.Node, hops []int) {
	dist, parent := paths.From(migp.HashGroup(group, paths.Nodes()))
	for i, m := range members {
		hops[i] = migp.TreePath(dist, parent, entry, m)
	}
}

var _ migp.Protocol = (*Protocol)(nil)
