// Package pimsm implements the PIM Sparse-Mode delivery model (RFC 2117)
// as a MIGP for the MASC/BGMP architecture.
//
// PIM-SM builds a unidirectional shared tree rooted at a Rendezvous Point
// chosen by hashing the group over the candidate routers: data travels
// from the sender up to the RP and then down the tree to receivers.
// Receivers may switch to a source-rooted shortest-path tree after
// observing traffic (the SPT switchover). PIM-SM tolerates packets
// entering the domain at any border (senders register with the RP), so
// RPF is not strict at domain entry.
package pimsm

import (
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
)

// Protocol is a PIM-SM instance for one domain. Safe for concurrent use.
type Protocol struct {
	// SPTThreshold is the number of packets from a source after which a
	// receiver switches from the RP tree to the shortest-path tree;
	// zero keeps everyone on the RP tree forever; 1 switches after the
	// first packet.
	SPTThreshold int

	mu   sync.Mutex
	seen map[key]int // guarded by mu
}

type key struct {
	src   addr.Addr
	group addr.Addr
}

// New returns a PIM-SM instance with the given SPT switchover threshold.
func New(sptThreshold int) *Protocol {
	return &Protocol{SPTThreshold: sptThreshold, seen: map[key]int{}}
}

// Name implements migp.Protocol.
func (*Protocol) Name() string { return "PIM-SM" }

// StrictRPF implements migp.Protocol: registering senders makes any entry
// border acceptable.
func (*Protocol) StrictRPF() bool { return false }

// RP returns the Rendezvous Point for a group: the hash of the group
// address over the domain's routers (§5.1).
func (p *Protocol) RP(g *topology.Graph, group addr.Addr) migp.Node {
	return migp.HashGroup(group, g.NumDomains())
}

// Deliver implements migp.Protocol: entry→RP→member on the shared tree, or
// entry→member after the receiver's SPT switchover.
func (p *Protocol) Deliver(paths *migp.Paths, entry migp.Node, source, group addr.Addr, members []migp.Node, hops []int) {
	rp := migp.HashGroup(group, paths.Nodes())
	distEntry, _ := paths.From(entry)
	distRP, _ := paths.From(rp)

	k := key{source, group}
	p.mu.Lock()
	p.seen[k]++
	onSPT := p.SPTThreshold > 0 && p.seen[k] > p.SPTThreshold
	p.mu.Unlock()

	for i, m := range members {
		if distRP[m] < 0 || distEntry[rp] < 0 {
			hops[i] = -1
			continue
		}
		h := distEntry[rp] + distRP[m]
		if onSPT && distEntry[m] >= 0 && distEntry[m] < h {
			h = distEntry[m]
		}
		hops[i] = h
	}
}

var _ migp.Protocol = (*Protocol)(nil)
