package bgmp

import (
	"cmp"
	"slices"

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

// sortedGroupsLocked returns the keys of t that within contains, in
// ascending order, in c.groupKeys: valid until the next call. A zero within
// (/0) contains every group. Caller holds c.mu.
func (c *Component) sortedGroupsLocked(t *addr.Table[addr.Addr, *entry], within addr.Prefix) []addr.Addr {
	gs := slices.DeleteFunc(t.Keys(c.groupKeys[:0]), func(g addr.Addr) bool { return !within.Contains(g) })
	slices.Sort(gs)
	c.groupKeys = gs
	return gs
}

// sortedSGKeysLocked returns c.srcs's keys ordered by (group, source), in
// c.sgKeys: valid until the next call. Caller holds c.mu.
func (c *Component) sortedSGKeysLocked() []sgKey {
	ks := c.sgKeys[:0]
	for k := range c.srcs {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, func(a, b sgKey) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.src, b.src))
	})
	c.sgKeys = ks
	return ks
}

// dropSharedClonesLocked removes (S,G) shared-clone state for g: it
// inherited the (*,G) entry's now-stale target list and is rebuilt lazily
// from fresh prunes. Caller holds c.mu.
func (c *Component) dropSharedClonesLocked(g addr.Addr) {
	for k, e := range c.srcs {
		if k.group == g && e.sharedClone {
			delete(c.srcs, k)
		}
	}
}

// reparent is one (*,G) entry's parent change in a RouteChanged pass: the
// parent it is pruned from and the one it joins through, once the pass has
// decided every entry.
type reparent struct {
	g         addr.Addr
	oldParent Target
	oldRoot   bool
	newParent Target
	newRoot   bool
	torn      bool
	rejoined  bool
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
	changes := c.changes[:0]
	for _, g := range c.sortedGroupsLocked(&c.groups, prefix) {
		e, _ := c.groups.Get(g)
		up, ok := c.lookupGroup(g)
		if !ok {
			// No route at all anymore: tear the forwarding entry down but
			// remember the children, so a returning route re-attaches the
			// tree without waiting for downstream rejoins.
			changes = append(changes, reparent{g: g, oldParent: e.parent, oldRoot: e.root, torn: true})
			c.groups.Delete(g)
			c.dropSharedClonesLocked(g)
			e.upstream = upstream{}
			c.orphans.Set(g, e)
			continue
		}
		if up.parent.key() == e.parent.key() && up.root == e.root {
			continue // path unchanged
		}
		changes = append(changes, reparent{
			g: g, oldParent: e.parent, oldRoot: e.root,
			newParent: up.parent, newRoot: up.root,
		})
		e.upstream = up
		// Dependent shared-clone (S,G) state inherited the old parent;
		// rebuild it lazily (drop it — prunes re-establish if needed).
		c.dropSharedClonesLocked(g)
	}
	// Orphans covered by the changed prefix may have a route again.
	for _, g := range c.sortedGroupsLocked(&c.orphans, prefix) {
		up, ok := c.lookupGroup(g)
		if !ok {
			continue
		}
		e, _ := c.orphans.Get(g)
		c.orphans.Delete(g)
		e.upstream = up
		c.groups.Set(g, e)
		changes = append(changes, reparent{g: g, newParent: up.parent, newRoot: up.root, rejoined: true})
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
	c.changes = changes
	c.finishLocked()
}

// PeerDown is the session-failure half of repair: a failed external peer
// sends no more prunes, so every (*,G), (S,G) and orphan entry that has it
// as a child is pruned on its behalf, by the paths its prunes would have
// taken. RouteChanged handles the parent side once BGP withdraws the
// routes learned from the peer.
func (c *Component) PeerDown(peer wire.RouterID, ctx wire.TraceContext) {
	sp := c.cfg.Obs.Tracer().BeginChild(ctx, obs.SpanPeerDown,
		obs.Event{Domain: c.cfg.Domain, Router: c.cfg.Router, Peer: peer})
	defer sp.End()
	t := PeerTarget(peer)
	c.mu.Lock()
	c.cur = sp.Context()
	for _, g := range c.sortedGroupsLocked(&c.groups, addr.Prefix{}) {
		if e, _ := c.groups.Get(g); e.hasChild(t) {
			c.pruneLocked(g, t)
		}
	}
	// 1:1 protection: surviving entries whose parent died switch to the
	// G-RIB's runner-up at once. The dead peer's routes are still in the
	// G-RIB here (Router.dropPeer withdraws them next), so the runner-up is
	// the route the G-RIB selects once they go, and the withdrawal-driven
	// RouteChanged finds the new parent already in place.
	for _, g := range c.sortedGroupsLocked(&c.groups, addr.Prefix{}) {
		e, _ := c.groups.Get(g)
		if e.root || e.parent.key() != t {
			continue
		}
		bk, ok := c.backupLocked(g)
		if !ok || bk.key() == t {
			// No alternative: the entry waits for RouteChanged to
			// re-resolve (or orphan) it.
			continue
		}
		// A runner-up route that ends at this domain makes the entry root:
		// the interior supplies the tree.
		e.upstream = upstream{parent: bk, root: bk == MIGPTarget}
		c.dropSharedClonesLocked(g)
		c.eventLocked(obs.Event{Kind: obs.BGMPFailover, Group: g, Peer: peer})
		c.attachLocked(g, bk, e.root)
	}
	for _, k := range c.sortedSGKeysLocked() {
		if c.srcs[k].hasChild(t) {
			c.sourcePruneLocked(k.src, k.group, t)
		}
	}
	// The dead peer's parked interest must not trigger a rejoin later.
	for _, g := range c.sortedGroupsLocked(&c.orphans, addr.Prefix{}) {
		if e, _ := c.orphans.Get(g); e.hasChild(t) {
			c.pruneLocked(g, t)
		}
	}
	c.finishLocked()
}
