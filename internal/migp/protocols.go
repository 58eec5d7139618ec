package migp

import (
	"slices"
	"sync"

	"mascbgmp/internal/addr"
)

// kind indexes the protocol table.
type kind uint8

const (
	dvmrp kind = iota
	pimsm
	pimdm
	cbt
	mospf
)

// protocols is everything that differs between the five MIGPs apart from
// the hop rule Deliver selects by kind: the name, and whether a packet
// that enters the domain at a border other than the reverse-path one
// toward its source is dropped by interior routers — the property that
// forces BGMP's encapsulation and source-specific branches (§5.3). To add
// an MIGP, add a row, a constructor and a case in Deliver.
var protocols = [...]struct {
	name      string
	strictRPF bool
}{
	dvmrp: {"DVMRP", true},   // wrong-entry packets fail the RPF check
	pimsm: {"PIM-SM", false}, // senders register with the RP: any entry border
	pimdm: {"PIM-DM", true},  // flood-and-prune, as DVMRP
	cbt:   {"CBT", false},    // the bidirectional tree takes data from any direction
	mospf: {"MOSPF", true},   // forwarding follows the computed source-rooted tree
}

// Protocol is one domain's interior protocol: the per-protocol delivery
// mechanics behind a Fabric, with the prune and tree state they keep. Safe
// for concurrent use.
type Protocol struct {
	kind kind
	// param is PIM-SM's SPT threshold or PIM-DM's prune life.
	param int

	mu sync.Mutex
	// flows counts packets per (source, group): since the last flood for
	// DVMRP and PIM-DM, ever for PIM-SM. guarded by mu
	flows map[flow]int
	// floods counts domain-wide floods: of data for DVMRP and PIM-DM, of
	// membership LSAs for MOSPF. guarded by mu
	floods int
	// lastSet is the member list MOSPF last flooded per group.
	// guarded by mu
	lastSet map[addr.Addr][]Node
}

type flow struct {
	src   addr.Addr
	group addr.Addr
}

// DVMRP returns a Distance Vector Multicast Routing Protocol instance (RFC
// 1075): source-rooted reverse-shortest-path trees, built by flooding the
// first packet of each (source, group) to the whole domain and pruning
// branches without members.
func DVMRP() *Protocol { return &Protocol{kind: dvmrp, flows: map[flow]int{}} }

// PIMSM returns a PIM Sparse-Mode instance (RFC 2117): a unidirectional
// shared tree rooted at a Rendezvous Point hashed from the group, data
// travelling sender → RP → receivers. After sptThreshold packets from a
// source receivers switch to its shortest-path tree; zero keeps everyone
// on the RP tree forever, 1 switches after the first packet.
func PIMSM(sptThreshold int) *Protocol {
	return &Protocol{kind: pimsm, param: sptThreshold, flows: map[flow]int{}}
}

// PIMDM returns a PIM Dense-Mode instance: flood-and-prune like DVMRP but
// on the unicast routing table, which in this interior model shows up as
// periodic re-flooding — prune state expires after pruneLife packets and
// the next packet floods the domain again; zero means prunes never expire
// (DVMRP-equivalent).
func PIMDM(pruneLife int) *Protocol {
	return &Protocol{kind: pimdm, param: pruneLife, flows: map[flow]int{}}
}

// CBT returns a Core Based Trees instance (RFC 2189): one bidirectional
// shared tree per group, rooted at a core hashed from the group. Data
// flows both ways along tree branches — the design BGMP adopts between
// domains (§5.2) — so it need not detour through the core. It keeps no
// state: the core-rooted tree is a row of the fabric's Paths.
func CBT() *Protocol { return &Protocol{kind: cbt} }

// MOSPF returns a Multicast OSPF instance (RFC 1584): group membership is
// flooded to every router in link-state advertisements, so data follows
// exact source-rooted shortest paths with no data-driven flooding, but
// every membership change costs a domain-wide LSA flood.
func MOSPF() *Protocol { return &Protocol{kind: mospf, lastSet: map[addr.Addr][]Node{}} }

// Name returns the protocol's name ("DVMRP", "PIM-SM", ...).
func (p *Protocol) Name() string { return protocols[p.kind].name }

// StrictRPF reports the protocol's row of the table; the fabric reads it
// once.
func (p *Protocol) StrictRPF() bool { return protocols[p.kind].strictRPF }

// Deliver sets hops[i] to the interior hop count from the entry node to
// members[i] for one packet, -1 when the member is unreachable in the
// interior graph, updating the protocol's state (prunes, tree joins).
// members is ascending and read-only; hops has the same length. All
// interior distances come from paths — a protocol never searches the graph
// itself.
func (p *Protocol) Deliver(paths *Paths, entry Node, source, group addr.Addr, members []Node, hops []int) {
	k := flow{source, group}
	switch p.kind {
	case cbt:
		// Along the bidirectional tree between entry and member: through
		// their lowest common ancestor on the core-rooted tree.
		dist, parent := paths.From(HashGroup(group, paths.Nodes()))
		for i, m := range members {
			hops[i] = TreePath(dist, parent, entry, m)
		}
		return
	case pimsm:
		// entry→RP→member on the shared tree, or entry→member after the
		// receivers' SPT switchover.
		rp := HashGroup(group, paths.Nodes())
		distEntry, _ := paths.From(entry)
		distRP, _ := paths.From(rp)
		p.mu.Lock()
		p.flows[k]++
		onSPT := p.param > 0 && p.flows[k] > p.param
		p.mu.Unlock()
		for i, m := range members {
			h := -1
			if distRP[m] >= 0 && distEntry[rp] >= 0 {
				h = distEntry[rp] + distRP[m]
				if onSPT && distEntry[m] >= 0 && distEntry[m] < h {
					h = distEntry[m]
				}
			}
			hops[i] = h
		}
		return
	case mospf:
		// A flood when the (ascending) member list differs from the one
		// last seen for the group; an unchanged list costs a compare.
		p.mu.Lock()
		if last := p.lastSet[group]; !slices.Equal(last, members) {
			p.lastSet[group] = append(last[:0], members...)
			p.floods++
		}
		p.mu.Unlock()
	case dvmrp, pimdm:
		// The first packet of a (source, group) floods the domain, and so
		// does the first after PIM-DM's prune life runs out; the rest
		// follow the pruned tree.
		p.mu.Lock()
		if n, flooded := p.flows[k]; !flooded || (p.param > 0 && n >= p.param) {
			p.flows[k] = 0 // the flood itself; suppression counting restarts
			p.floods++
		} else if p.param > 0 {
			p.flows[k] = n + 1
		}
		p.mu.Unlock()
	}
	// DVMRP, PIM-DM, MOSPF: the source-rooted shortest-path tree, so every
	// member pays the entry's distance row.
	dist, _ := paths.From(entry)
	for i, m := range members {
		hops[i] = dist[m]
	}
}

// Graft clears prune state for a (source, group), as a DVMRP Graft after a
// new member appears on a pruned branch would; the next packet re-floods.
func (p *Protocol) Graft(source, group addr.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.flows, flow{source, group})
}

// Floods returns the number of domain-wide floods so far: first-packet and
// prune-expiry data floods for DVMRP and PIM-DM, membership-LSA floods for
// MOSPF — the broadcast overhead the paper holds against these protocols
// for inter-domain use (§1).
func (p *Protocol) Floods() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.floods
}
