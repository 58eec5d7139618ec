// Package dvmrp implements the Distance Vector Multicast Routing Protocol
// delivery model (RFC 1075) as a MIGP for the MASC/BGMP architecture.
//
// DVMRP builds source-rooted reverse-shortest-path trees by flooding the
// first packet of each (source, group) to the whole domain and pruning
// branches without members. Interior routers apply strict RPF: a packet
// from source S is accepted only from the neighbor on the shortest path
// back to S, which is what forces BGMP border routers to encapsulate
// packets that arrive on the shared tree at the "wrong" border (§5.3).
package dvmrp

import (
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
)

// Protocol is a DVMRP instance for one domain. Safe for concurrent use.
type Protocol struct {
	mu sync.Mutex
	// pruned marks (source, group) pairs whose first-packet flood has
	// happened; later packets follow the pruned tree (members only).
	// guarded by mu
	pruned map[key]bool
	// floods counts first-packet floods (each reached every node).
	// guarded by mu
	floods int
}

type key struct {
	src   addr.Addr
	group addr.Addr
}

// New returns a DVMRP instance.
func New() *Protocol {
	return &Protocol{pruned: map[key]bool{}}
}

// Name implements migp.Protocol.
func (*Protocol) Name() string { return "DVMRP" }

// StrictRPF implements migp.Protocol: DVMRP drops wrong-entry packets.
func (*Protocol) StrictRPF() bool { return true }

// Deliver implements migp.Protocol. The first packet of a (source, group)
// floods the entire domain (every node pays the shortest-path cost from the
// entry); subsequent packets reach members only, along the same
// reverse-shortest-path branches.
func (p *Protocol) Deliver(paths *migp.Paths, entry migp.Node, source, group addr.Addr, members []migp.Node, hops []int) {
	k := key{source, group}
	p.mu.Lock()
	if !p.pruned[k] {
		p.pruned[k] = true
		p.floods++
	}
	p.mu.Unlock()
	migp.ShortestHops(paths, entry, members, hops)
}

// Graft clears prune state for a (source, group), as a DVMRP Graft after a
// new member appears on a pruned branch would; the next packet re-floods.
func (p *Protocol) Graft(source, group addr.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pruned, key{source, group})
}

// Floods returns the number of first-packet domain-wide floods — the
// broadcast overhead the paper holds against flood-and-prune protocols for
// inter-domain use (§1).
func (p *Protocol) Floods() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.floods
}

var _ migp.Protocol = (*Protocol)(nil)
