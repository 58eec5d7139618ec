// Package mospf implements the Multicast OSPF delivery model (RFC 1584) as
// a MIGP for the MASC/BGMP architecture.
//
// MOSPF floods group-membership information to every router via link-state
// advertisements, so each router can compute the source-rooted
// shortest-path tree for any (source, group) on demand: data follows exact
// shortest paths with no data-driven flooding, but every topology or
// membership change costs a domain-wide LSA flood.
package mospf

import (
	"slices"
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
)

// Protocol is an MOSPF instance for one domain. Safe for concurrent use.
type Protocol struct {
	mu sync.Mutex
	// memberLSAs counts membership-change floods: one per distinct
	// member set observed per group. guarded by mu
	memberLSAs int
	lastSet    map[addr.Addr][]migp.Node // guarded by mu
}

// New returns an MOSPF instance.
func New() *Protocol {
	return &Protocol{lastSet: map[addr.Addr][]migp.Node{}}
}

// Name implements migp.Protocol.
func (*Protocol) Name() string { return "MOSPF" }

// StrictRPF implements migp.Protocol: forwarding follows the computed
// source-rooted tree, so entry at the wrong border fails the computation.
func (*Protocol) StrictRPF() bool { return true }

// Deliver implements migp.Protocol: exact shortest paths from the entry.
func (p *Protocol) Deliver(paths *migp.Paths, entry migp.Node, source, group addr.Addr, members []migp.Node, hops []int) {
	p.noteMembership(group, members)
	migp.ShortestHops(paths, entry, members, hops)
}

// MembershipFloods returns how many domain-wide membership LSA floods have
// happened — the scaling cost the paper cites against MOSPF (§1).
func (p *Protocol) MembershipFloods() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.memberLSAs
}

// noteMembership counts a flood when the (ascending) member list differs
// from the one last seen for the group; an unchanged list costs a compare.
func (p *Protocol) noteMembership(group addr.Addr, members []migp.Node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if last := p.lastSet[group]; !slices.Equal(last, members) {
		p.lastSet[group] = append(last[:0], members...)
		p.memberLSAs++
	}
}

var _ migp.Protocol = (*Protocol)(nil)
