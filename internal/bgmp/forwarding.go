package bgmp

import (
	"slices"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// ------------------------------------------------ source-specific branches

// RequestSourceBranch starts a source-specific branch (§5.3): (S,G) state
// toward the source, used by a border router that wants data from S to
// arrive natively instead of encapsulated. The join propagates until it
// reaches a router on the group's bidirectional tree or the source domain.
func (c *Component) RequestSourceBranch(s, g addr.Addr) {
	c.mu.Lock()
	c.sourceJoinLocked(s, g, MIGPTarget)
	c.finishLocked()
}

// sourceJoinLocked adds `child` to the (S,G) entry, creating it when
// absent. Creation on a router already on the shared tree copies the (*,G)
// target list and does not propagate (the branch stops here); otherwise the
// join continues toward the source.
func (c *Component) sourceJoinLocked(s, g addr.Addr, child Target) {
	c.eventLocked(obs.Event{Kind: obs.BGMPJoin, Group: g, Source: s})
	k := sgKey{s, g}
	if e, ok := c.srcs[k]; ok {
		c.addChildLocked(e, child)
		return
	}
	if ge, ok := c.groups.Get(g); ok {
		// On the shared tree: (S,G) inherits the (*,G) targets, plus the
		// new branch child. The join stops here.
		e := c.cloneLocked(ge)
		c.addChildLocked(e, child)
		c.srcs[k] = e
		return
	}
	parent, sourceLocal, ok := c.resolve(c.cfg.LookupSource, s)
	if !ok {
		return
	}
	e := c.newEntryLocked(upstream{parent: parent, root: sourceLocal})
	c.addChildLocked(e, child)
	c.srcs[k] = e
	if !sourceLocal {
		c.out = append(c.out, outItem{target: parent, msg: &wire.SourceJoin{Group: g, Source: s}})
	}
}

// cloneLocked copies e into (S,G) shared-tree state (used when source-
// specific state is instantiated from the (*,G) entry, per §5.3).
func (c *Component) cloneLocked(e *entry) *entry {
	se := c.newEntryLocked(upstream{parent: e.parent, root: e.root})
	c.fitChildrenLocked(se, len(e.children))
	se.children = append(se.children, e.children...)
	se.sharedClone = true
	return se
}

// sourcePruneLocked handles a source-specific prune from `child`: either
// tearing down branch state or recording that S's packets must no longer
// flow to `child` along the shared tree, propagating upstream when no other
// target needs them (§5.3).
func (c *Component) sourcePruneLocked(s, g addr.Addr, child Target) {
	c.eventLocked(obs.Event{Kind: obs.BGMPPrune, Group: g, Source: s})
	k := sgKey{s, g}
	e, ok := c.srcs[k]
	if !ok {
		ge, okG := c.groups.Get(g)
		if !okG {
			return
		}
		e = c.cloneLocked(ge)
		c.srcs[k] = e
	}
	if child.MIGP {
		// The interior now receives S elsewhere (e.g. via a decapsulating
		// border's branch): all interior-side interest in S goes.
		c.removeMIGPChildrenLocked(e)
	} else {
		c.removeChildLocked(e, child)
	}
	if len(e.children) > 0 {
		return
	}
	switch {
	case e.sharedClone:
		// Shared-tree prune state: tell the upstream to stop sending S's
		// packets and keep the entry as a negative cache so S's packets
		// are no longer forwarded through here at all.
		if !e.root {
			c.out = append(c.out, outItem{target: e.parent, msg: &wire.SourcePrune{Group: g, Source: s}})
		}
	case !e.root:
		// A torn-down branch: propagate toward the source and forget.
		c.out = append(c.out, outItem{target: e.parent, msg: &wire.SourcePrune{Group: g, Source: s}})
		delete(c.srcs, k)
	default:
		delete(c.srcs, k)
	}
}

// ----------------------------------------------------------- data plane

// Deliver is the single data-plane ingress: every multicast packet reaching
// this border router enters here, tagged with where it came from. src is
// MIGPTarget for interior-origin packets, MIGPToward(r) for packets relayed
// from sibling border r through the domain, and PeerTarget(r) for packets
// from external peer r. Encapsulated relays (§5.3) are recognized and
// decapsulated; everything else follows the (S,G)/(*,G)/off-tree rules.
//
// Deliver is the contract the pluggable data-plane backends implement
// (internal/dataplane); this is the shared-tree implementation.
func (c *Component) Deliver(src Target, d *wire.Data) {
	if d.Encap && src.MIGP && src.Router != 0 {
		c.handleEncap(src.Router, d)
		return
	}
	c.handleData(src, d)
}

// handleData forwards one packet according to the (S,G) entry when present,
// the (*,G) entry otherwise, and — with no state at all — toward the
// group's root domain ("any router must be able to forward a data packet
// towards group members", §3).
func (c *Component) handleData(from Target, d *wire.Data) {
	if d.TTL == 0 {
		return
	}
	k := sgKey{d.Source, d.Group}
	c.mu.Lock()
	if from.key() == MIGPTarget && c.importedSG[k] {
		// Interior copies of a flow this router encapsulates inward are
		// its own reflux: dropping them here breaks the B2↔F1 loop of
		// Fig 3(b) while the source-specific branch is being built.
		c.mu.Unlock()
		return
	}
	e, isSG := c.srcs[k], false
	if e != nil {
		isSG = true
	} else {
		e, _ = c.groups.Get(d.Group)
	}
	var encapFrom wire.RouterID
	var hadEncap bool
	if isSG && from.key() == e.parent.key() {
		// Native data now arrives along the branch: stop the
		// encapsulated copies (§5.3).
		if r, ok := c.encapFrom[k]; ok {
			encapFrom, hadEncap = r, true
			delete(c.encapFrom, k)
		}
	}
	// The bidirectional rule: every target of the entry except the one the
	// packet came from, listed into storage of this call's own.
	var buf [fanOutStack]Target
	var targets, spill []Target
	fk, fanOut := from.key(), 0
	if e != nil && !(isSG && e.sharedClone && len(e.children) == 0) {
		// An empty shared-clone (S,G) entry is a negative cache: S's
		// packets stop here (every downstream pruned; the upstream was
		// pruned too).
		targets, spill = c.fanOutLocked(e, buf[:])
		fanOut = len(targets)
		if slices.Contains(targets, fk) {
			fanOut--
		}
	}
	c.mu.Unlock()

	// Per-packet forwarding work: how many copies this router fans out.
	c.cfg.Obs.Histogram(obs.HistForwardWork, c.cfg.Domain, c.cfg.Router).Observe(uint64(fanOut))

	if hadEncap {
		c.eg.Send(MIGPToward(encapFrom), &wire.SourcePrune{Group: d.Group, Source: d.Source})
	}

	if e == nil {
		c.forwardOffTree(from, d)
		return
	}
	for _, t := range targets {
		if t != fk {
			c.forwardTo(t, d)
		}
	}
	c.giveSpill(spill)
}

// fanOutStack is the most targets a forwarder lists on its own stack: more
// than any router of the benchmark's worlds has (33).
const fanOutStack = 64

// fanOutLocked lists e's targets, for sending to after unlocking, into buf
// or, when they do not fit, into an array off the free lists that it also
// returns as spill, for giveSpill to put back after the sends.
func (c *Component) fanOutLocked(e *entry, buf []Target) (targets, spill []Target) {
	if n := len(e.children) + 1; n > cap(buf) { // the most appendTargets lists
		spill = c.takeArrayLocked(childClass(n))
		buf = spill
	}
	return e.appendTargets(buf[:0]), spill
}

// giveSpill puts back an array fanOutLocked spilled into, on a fresh free
// list after a Reset in between; nil is a no-op.
func (c *Component) giveSpill(spill []Target) {
	if spill != nil {
		c.mu.Lock()
		c.arraysLocked(cap(spill)).Give(spill[:0])
		c.mu.Unlock()
	}
}

// forwardOffTree implements the no-state rule: keep the packet moving
// toward the root domain until it hits the shared tree.
func (c *Component) forwardOffTree(from Target, d *wire.Data) {
	next, _, ok := c.resolve(c.cfg.LookupGroup, d.Group)
	if !ok {
		return // no root domain known: drop
	}
	if next.key() == from.key() {
		// Never back where it came from: interior data at a router that is
		// not its best exit (the domain emits one copy), or a peer's packet
		// down a branch this router has left, its prune still in flight.
		return
	}
	// To the next peer; or, for a peer's packet whose way on is interior,
	// into the domain: in the root domain the interior delivers to local
	// members and the on-tree borders pick it up, in a transit domain it
	// crosses to the best exit (the paper's A1→A3 example).
	c.forwardTo(next, d)
}

// forwardTo sends a copy of d to one target: across the peering, or into
// the interior — where an RPF refusal means unicast-encapsulating to the
// border router the interior expects this source to enter at (§5.3).
func (c *Component) forwardTo(t Target, d *wire.Data) {
	if !t.MIGP {
		c.eg.ToPeer(t.Router, d)
		return
	}
	exp := c.eg.Inject(d)
	if exp == 0 {
		return
	}
	// Marked before the relay leaves: the reflux of the encapsulated flow
	// can reach handleData during that call. Only a router on the group's
	// tree marks it: off the tree, forwardOffTree never sends an interior
	// copy back into the interior, and a mark made there would outlive the
	// state it was made without and drop the flow once the router joins.
	c.mu.Lock()
	if c.groups.Has(d.Group) {
		c.importedSG[sgKey{d.Source, d.Group}] = true
	}
	enc := c.takePacketLocked()
	c.mu.Unlock()
	*enc = *d
	c.eg.Encap(exp, enc)
	c.givePacket(enc)
}

// takePacketLocked takes the spare packet a §5.3 relay is built in, or
// makes one when it is out.
func (c *Component) takePacketLocked() *wire.Data {
	d := c.spare
	c.spare = nil
	if d == nil {
		d = new(wire.Data)
	}
	return d
}

// givePacket puts d back as the spare, cleared so that it holds no one's
// payload.
func (c *Component) givePacket(d *wire.Data) {
	*d = wire.Data{}
	c.mu.Lock()
	c.spare = d
	c.mu.Unlock()
}

// handleEncap processes an encapsulated packet relayed from another border
// router of this domain: decapsulate, inject (we are the expected entry, so
// interior RPF passes), serve this router's own peers on the shared tree,
// and optionally start a source-specific branch so future packets arrive
// natively.
func (c *Component) handleEncap(from wire.RouterID, d *wire.Data) {
	c.mu.Lock()
	native := c.takePacketLocked()
	c.mu.Unlock()
	*native = wire.Data{Group: d.Group, Source: d.Source, TTL: d.TTL, Payload: d.Payload}
	c.eg.Inject(native)
	k := sgKey{d.Source, d.Group}
	c.mu.Lock()
	e, _ := c.groups.Get(d.Group)
	var buf [fanOutStack]Target
	var targets, spill []Target
	if e != nil {
		targets, spill = c.fanOutLocked(e, buf[:])
	}
	_, have := c.srcs[k]
	branch := c.cfg.BuildSourceBranches && !have
	if branch {
		c.encapFrom[k] = from
	}
	c.mu.Unlock()
	// The interior hands an injected packet to every border but the one it
	// entered at, so the peers this router holds on the shared tree get
	// their copy here. The (*,G) entry's peers only: through handleData or
	// the (S,G) entry the shared-tree copy goes up a source branch's parent
	// and loops until its TTL runs out.
	for _, t := range targets {
		if !t.MIGP {
			c.eg.ToPeer(t.Router, native)
		}
	}
	c.giveSpill(spill)
	c.givePacket(native)
	if branch {
		c.RequestSourceBranch(d.Source, d.Group)
	}
}
