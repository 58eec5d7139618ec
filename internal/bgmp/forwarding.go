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
		e.addChild(child)
		return
	}
	if ge, ok := c.groups[g]; ok {
		// On the shared tree: (S,G) inherits the (*,G) targets, plus the
		// new branch child. The join stops here.
		e := ge.clone()
		e.addChild(child)
		c.srcs[k] = e
		return
	}
	parent, sourceLocal, ok := c.resolve(c.cfg.LookupSource, s)
	if !ok {
		return
	}
	e := newEntry(parent, sourceLocal)
	e.addChild(child)
	c.srcs[k] = e
	if !sourceLocal {
		c.out = append(c.out, outItem{target: parent, msg: &wire.SourceJoin{Group: g, Source: s}})
	}
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
		ge, okG := c.groups[g]
		if !okG {
			return
		}
		e = ge.clone()
		c.srcs[k] = e
	}
	if child.MIGP {
		// The interior now receives S elsewhere (e.g. via a decapsulating
		// border's branch): all interior-side interest in S goes.
		e.removeMIGPChildren()
	} else {
		e.removeChild(child)
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
	} else if e = c.groups[d.Group]; e == nil {
		// Aggregated (*,G-prefix) state (§7) serves covered groups.
		e = c.prefixEntryForLocked(d.Group)
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
	// packet came from. targets is the entry's cached list, replaced and
	// never edited on a join or prune, so it is read here without a copy.
	var targets []Target
	fk, fanOut := from.key(), 0
	if e != nil && !(isSG && e.sharedClone && len(e.children) == 0) {
		// An empty shared-clone (S,G) entry is a negative cache: S's
		// packets stop here (every downstream pruned; the upstream was
		// pruned too).
		targets = e.targets()
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
}

// forwardOffTree implements the no-state rule: keep the packet moving
// toward the root domain until it hits the shared tree.
func (c *Component) forwardOffTree(from Target, d *wire.Data) {
	next, _, ok := c.resolve(c.cfg.LookupGroup, d.Group)
	if !ok {
		return // no root domain known: drop
	}
	if from.key() == MIGPTarget && next.MIGP {
		// Interior-origin data (or data transiting the domain) at a router
		// that is not its best exit — this is the root domain, or the route
		// leaves through a sibling border. Only the best exit pushes it
		// onward, so the domain emits a single copy.
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
	if exp := c.eg.Inject(d); exp != 0 {
		// Marked before the relay leaves: the reflux of the encapsulated
		// flow can reach handleData during that call.
		c.mu.Lock()
		c.importedSG[sgKey{d.Source, d.Group}] = true
		c.mu.Unlock()
		c.eg.Encap(exp, d)
	}
}

// handleEncap processes an encapsulated packet relayed from another border
// router of this domain: decapsulate, inject (we are the expected entry, so
// interior RPF passes), serve this router's own peers on the shared tree,
// and optionally start a source-specific branch so future packets arrive
// natively.
func (c *Component) handleEncap(from wire.RouterID, d *wire.Data) {
	native := &wire.Data{Group: d.Group, Source: d.Source, TTL: d.TTL, Payload: d.Payload}
	c.eg.Inject(native)
	k := sgKey{d.Source, d.Group}
	c.mu.Lock()
	e := c.groups[d.Group]
	if e == nil {
		e = c.prefixEntryForLocked(d.Group)
	}
	var targets []Target
	if e != nil {
		targets = e.targets()
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
	if branch {
		c.RequestSourceBranch(d.Source, d.Group)
	}
}
