package bgmp

import (
	"sort"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// Tree repair. When BGP's best route toward a group's root domain changes
// (a peering failed, a better path appeared, a group route was withdrawn),
// the (*,G) parent target recorded at join time goes stale. RouteChanged
// re-resolves the parent of every affected entry: it prunes the old parent
// and joins through the new one, keeping the shared tree attached to the
// root domain. The paper's stability requirement (§3) argues against
// *frequent* reshaping — repair only runs on actual route changes, never
// on membership churn.
//
// All repair paths iterate entry maps in sorted key order so that the
// emitted messages and obs events are identical across same-seed runs.

// sortedGroups returns m's keys in ascending order. Caller holds c.mu.
func sortedGroups(m map[addr.Addr]*entry) []addr.Addr {
	gs := make([]addr.Addr, 0, len(m))
	for g := range m {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	return gs
}

// sortedSGKeys returns m's keys ordered by (group, source). Caller holds
// c.mu.
func sortedSGKeys(m map[sgKey]*entry) []sgKey {
	ks := make([]sgKey, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].group != ks[j].group {
			return ks[i].group < ks[j].group
		}
		return ks[i].src < ks[j].src
	})
	return ks
}

// dropSharedClonesLocked removes (S,G) shared-clone state for g: it
// inherited the (*,G) entry's now-stale target list and is rebuilt lazily
// from fresh prunes. Caller holds c.mu.
func (c *Component) dropSharedClonesLocked(g addr.Addr) {
	for _, k := range sortedSGKeys(c.srcs) {
		if k.group == g && c.srcs[k].sharedClone {
			delete(c.srcs, k)
		}
	}
}

// RouteChanged re-resolves the parent target of every (*,G) entry covered
// by prefix (the changed G-RIB route). Entries whose lookup now fails are
// parked as orphans — children retained, forwarding state gone — and
// orphans that regain a covering route are re-attached and re-joined
// upstream, the recovery half of session repair.
//
// ctx is the causal context of whatever made the route change (a BGP
// update's span, a session teardown); the repair span parents under it and
// every emitted prune/join carries the repair span onward.
func (c *Component) RouteChanged(prefix addr.Prefix, ctx wire.TraceContext) {
	sp := c.cfg.Obs.Tracer().BeginChild(ctx, obs.SpanRepair,
		obs.Event{Domain: c.cfg.Domain, Router: c.cfg.Router, Prefix: prefix})
	defer sp.End()
	c.mu.Lock()
	c.cur = sp.Context()
	type change struct {
		g         addr.Addr
		oldParent Target
		oldRoot   bool
		newParent Target
		newRoot   bool
		torn      bool
		rejoined  bool
	}
	var changes []change
	for _, g := range sortedGroups(c.groups) {
		if !prefix.Contains(g) {
			continue
		}
		e := c.groups[g]
		parent, root, ok := c.resolve(c.cfg.LookupGroup, g)
		if !ok {
			// No route at all anymore: tear the forwarding entry down but
			// remember the children, so a returning route re-attaches the
			// tree without waiting for downstream rejoins.
			changes = append(changes, change{g: g, oldParent: e.parent, oldRoot: e.root, torn: true})
			delete(c.groups, g)
			c.dropSharedClonesLocked(g)
			e.setParent(Target{})
			e.root = false
			c.orphans[g] = e
			continue
		}
		if parent.key() == e.parent.key() && root == e.root {
			// Path unchanged; the runner-up candidate set may still have
			// rotated, so refresh the precomputed backup incrementally.
			c.armBackupLocked(e, g)
			continue
		}
		changes = append(changes, change{
			g: g, oldParent: e.parent, oldRoot: e.root,
			newParent: parent, newRoot: root,
		})
		e.setParent(parent)
		e.root = root
		c.armBackupLocked(e, g)
		// Dependent shared-clone (S,G) state inherited the old parent;
		// rebuild it lazily (drop it — prunes re-establish if needed).
		c.dropSharedClonesLocked(g)
	}
	// Orphans covered by the changed prefix may have a route again.
	for _, g := range sortedGroups(c.orphans) {
		if !prefix.Contains(g) {
			continue
		}
		parent, root, ok := c.resolve(c.cfg.LookupGroup, g)
		if !ok {
			continue
		}
		e := c.orphans[g]
		delete(c.orphans, g)
		e.setParent(parent)
		e.root = root
		c.armBackupLocked(e, g)
		c.groups[g] = e
		changes = append(changes, change{g: g, newParent: parent, newRoot: root, rejoined: true})
	}
	for _, ch := range changes {
		c.eventLocked(obs.Event{Kind: obs.BGMPRepair, Group: ch.g, Prefix: prefix})
		if !ch.rejoined {
			c.detachLocked(ch.g, ch.oldParent, ch.oldRoot)
		}
		if !ch.torn {
			c.attachLocked(ch.g, ch.newParent, ch.newRoot)
		}
	}
	c.finishLocked()
}

// PeerDown removes every child target pointing at a failed external peer
// and tears down entries that lose their last child, propagating prunes —
// the session-failure half of repair (RouteChanged handles the parent
// side once BGP withdraws the routes learned from the peer).
func (c *Component) PeerDown(peer wire.RouterID, ctx wire.TraceContext) {
	sp := c.cfg.Obs.Tracer().BeginChild(ctx, obs.SpanPeerDown,
		obs.Event{Domain: c.cfg.Domain, Router: c.cfg.Router, Peer: peer})
	defer sp.End()
	t := PeerTarget(peer)
	c.mu.Lock()
	c.cur = sp.Context()
	for _, g := range sortedGroups(c.groups) {
		e := c.groups[g]
		if !e.children[t] {
			continue
		}
		e.removeChild(t)
		if len(e.children) > 0 {
			continue
		}
		delete(c.groups, g)
		c.eventLocked(obs.Event{Kind: obs.BGMPRepair, Group: g})
		c.dropSharedClonesLocked(g)
		c.detachLocked(g, e.parent, e.root)
	}
	// Precomputed 1:1 protection: surviving entries whose parent died
	// switch to their backup target immediately, without re-querying the
	// G-RIB — the withdrawal-driven RouteChanged later confirms the new
	// parent (a no-op when it matches) and re-arms a fresh backup.
	for _, g := range sortedGroups(c.groups) {
		e := c.groups[g]
		if e.root || e.parent.key() != t {
			continue
		}
		if !e.hasBackup || e.backup.key() == t {
			// No precomputed alternative: the entry waits for RouteChanged
			// to re-resolve (or orphan) it.
			continue
		}
		bk := e.backup
		e.backup, e.hasBackup = Target{}, false
		e.setParent(bk)
		c.dropSharedClonesLocked(g)
		c.eventLocked(obs.Event{Kind: obs.BGMPFailover, Group: g, Peer: peer})
		// A runner-up route that ends at this domain makes the entry root:
		// the interior supplies the tree.
		e.root = bk == MIGPTarget
		c.attachLocked(g, bk, e.root)
	}
	for _, k := range sortedSGKeys(c.srcs) {
		if se := c.srcs[k]; se.children[t] {
			se.removeChild(t)
		}
	}
	// The dead peer's parked interest must not trigger a rejoin later.
	for _, g := range sortedGroups(c.orphans) {
		oe := c.orphans[g]
		if !oe.children[t] {
			continue
		}
		oe.removeChild(t)
		if len(oe.children) == 0 {
			delete(c.orphans, g)
		}
	}
	c.finishLocked()
}
