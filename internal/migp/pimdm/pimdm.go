// Package pimdm implements the PIM Dense-Mode delivery model as a MIGP for
// the MASC/BGMP architecture.
//
// PIM-DM, like DVMRP, floods data and prunes branches without members, but
// relies on the unicast routing table instead of carrying its own routes.
// In this interior model the difference shows up as periodic re-flooding:
// prune state expires after PruneLife packets and the next packet floods
// the domain again.
package pimdm

import (
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
)

// Protocol is a PIM-DM instance for one domain. Safe for concurrent use.
type Protocol struct {
	// PruneLife is how many packets a prune suppresses before state
	// expires and the next packet re-floods; zero means prunes never
	// expire (DVMRP-equivalent).
	PruneLife int

	mu     sync.Mutex
	state  map[key]int // packets since last flood; guarded by mu
	floods int         // guarded by mu
}

type key struct {
	src   addr.Addr
	group addr.Addr
}

// New returns a PIM-DM instance.
func New(pruneLife int) *Protocol {
	return &Protocol{PruneLife: pruneLife, state: map[key]int{}}
}

// Name implements migp.Protocol.
func (*Protocol) Name() string { return "PIM-DM" }

// StrictRPF implements migp.Protocol.
func (*Protocol) StrictRPF() bool { return true }

// Deliver implements migp.Protocol.
func (p *Protocol) Deliver(paths *migp.Paths, entry migp.Node, source, group addr.Addr, members []migp.Node, hops []int) {
	k := key{source, group}
	p.mu.Lock()
	n, flooded := p.state[k]
	if !flooded || (p.PruneLife > 0 && n >= p.PruneLife) {
		p.state[k] = 0 // the flood itself; suppression counting restarts
		p.floods++
	} else {
		p.state[k] = n + 1
	}
	p.mu.Unlock()
	migp.ShortestHops(paths, entry, members, hops)
}

// Floods returns the number of domain-wide floods so far.
func (p *Protocol) Floods() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.floods
}

var _ migp.Protocol = (*Protocol)(nil)
