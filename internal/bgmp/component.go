package bgmp

import (
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// MIGP is the interface between a border router's BGMP component and the
// domain's Multicast Interior Gateway Protocol component (paper §5: "The
// portion of the border router running an MIGP is referred to as the MIGP
// component"). Implementations live in internal/migp and internal/core.
//
// All methods are called without BGMP-internal locks held.
type MIGP interface {
	// JoinGroup registers interior interest in g at this border router
	// (e.g. a DVMRP Graft toward pruned sources, or joining the PIM-SM RP
	// tree) so interior data for g reaches it and members receive data it
	// injects.
	JoinGroup(g addr.Addr)
	// LeaveGroup undoes JoinGroup.
	LeaveGroup(g addr.Addr)
	// RelayToBorder carries a BGMP control or encapsulated data message
	// through the domain to another of its border routers, setting up
	// any transit state the interior protocol needs. The message it is
	// handed is the caller's again when it returns (Config.SendPeer).
	RelayToBorder(to wire.RouterID, msg wire.Message)
	// Inject delivers a multicast packet into the domain at this border
	// router: the interior protocol distributes it to interior members
	// and to the other border routers with state for the group. The
	// return value is false when interior RPF would drop the packet
	// (the packet entered at the wrong border router for its source, the
	// encapsulation case of §5.3) — the caller must encapsulate instead.
	// d is the caller's again when Inject returns (Config.SendPeer).
	Inject(d *wire.Data) bool
	// ExpectedEntry returns the border router through which interior RPF
	// expects packets from src to enter the domain (the best exit toward
	// src).
	ExpectedEntry(src addr.Addr) wire.RouterID
}

// Config parameterizes a Component.
type Config struct {
	Router wire.RouterID
	Domain wire.DomainID
	// LookupGroup resolves a group address in the G-RIB; required.
	LookupGroup func(g addr.Addr) (bgp.Entry, bool)
	// LookupGroupBackup is LookupGroup that also returns the runner-up
	// G-RIB candidate for the prefix it matched — the route the decision
	// process would pick if the best's peer vanished — valid when
	// hasBackup. PeerDown asks it when a (*,G) parent's session dies, while
	// the dead peer's routes are still in the G-RIB, and switches the tree
	// to the runner-up at once; nil means no failover (repair then waits
	// for the BGP withdrawal).
	LookupGroupBackup func(g addr.Addr) (best, backup bgp.Entry, ok, hasBackup bool)
	// LookupSource resolves a source address for RPF-style forwarding:
	// the M-RIB where it holds a route, else unicast (core leaves the
	// M-RIB empty unless a world makes it differ).
	LookupSource func(s addr.Addr) (bgp.Entry, bool)
	// Internal reports whether a router ID is a border router of this
	// same domain.
	Internal func(r wire.RouterID) bool
	// SendPeer transmits a BGMP message to an external peer. The message it
	// is handed is the caller's again when it returns: the caller reuses a
	// packet for its next copy and a join or prune for its next message, so
	// a SendPeer that keeps or defers one copies it first (core's
	// faultSender does; its direct sender encodes it into the queue or
	// decodes its own copy of a packet, and the TCP peer encodes before it
	// returns). The same holds for MIGP's RelayToBorder and Inject.
	SendPeer func(to wire.RouterID, msg wire.Message)
	// MIGP is the interior component; required.
	MIGP MIGP
	// BuildSourceBranches enables §5.3 source-specific branches: a border
	// router receiving encapsulated data may join toward the source to
	// stop the encapsulation. Disabled, BGMP uses pure bidirectional
	// trees (the ablation baseline).
	BuildSourceBranches bool
	// Obs observes joins, prunes, tree repairs, and data-plane hops,
	// scoped by Domain/Router. Nil disables observation.
	Obs *obs.Observer
}

// Component is the BGMP speaker of one border router. Safe for concurrent
// use.
type Component struct {
	cfg Config
	// eg is the next-hop rule and the hand-offs out of this router.
	eg Egress

	mu     sync.Mutex
	groups addr.Table[addr.Addr, *entry] // guarded by mu
	srcs   map[sgKey]*entry              // guarded by mu
	// encapFrom remembers, per (S,G), the internal border router that is
	// encapsulating data to us, so we can source-prune it once the
	// source-specific branch delivers. guarded by mu
	encapFrom map[sgKey]wire.RouterID
	// importedSG marks (S,G) flows this router itself encapsulates into
	// the domain: interior copies of them are its own reflux and must not
	// be re-exported up the shared tree (they would loop B2↔F1 in the
	// paper's Fig 3(b) topology). guarded by mu
	importedSG map[sgKey]bool
	// spare is the packet a §5.3 relay is built in, the encapsulated copy
	// forwardTo sends or the native one handleEncap injects: taken for the
	// call and put back after it, as the overlays' scratch is; nil while one
	// is out. A router that never relays holds none. guarded by mu
	spare *wire.Data
	// orphans parks (*,G) entries whose G-RIB route vanished (or never
	// existed at join time). The child list is kept so that when a
	// covering route reappears — a session recovered, BGP resynced —
	// RouteChanged can re-attach the tree without waiting for downstream
	// routers to re-issue joins. Orphans hold no forwarding state.
	// guarded by mu
	orphans addr.Table[addr.Addr, *entry]
	// out buffers messages generated under the lock. guarded by mu
	out []outItem
	// joins and prunes are the free lists attachLocked and detachLocked
	// take their messages from, and finishLocked gives them back to once
	// sent: a message handed to SendPeer or the MIGP is the sender's again
	// when that returns. Plain stacks, not a sync.Pool. guarded by mu
	joins  addr.FreeList[*wire.GroupJoin]
	prunes addr.FreeList[*wire.GroupPrune]
	// free holds the entries torn down, cleared, for newEntryLocked to build
	// the next ones from: churn builds and tears down an entry at every
	// router a join crosses. It keeps every one given back, so entries live
	// and free together number the most the router ever held live at once.
	// guarded by mu
	free addr.FreeList[*entry]
	// arrays are the free lists of children arrays, by size class: arrays[k]
	// holds those of capacity 2<<k (fitChildrenLocked). guarded by mu
	arrays []addr.FreeList[[]Target]
	// evbuf collects events under the lock; they are emitted with the
	// out-queue after release so observers may call back into the router.
	// guarded by mu
	evbuf []obs.Event
	// groupKeys, sgKeys and changes are repair's scratch, reused by every
	// pass: the sorted keys it walks while it edits the tables, and
	// RouteChanged's parent changes. guarded by mu
	groupKeys []addr.Addr
	sgKeys    []sgKey
	changes   []reparent
	// cur is the causal trace context of the operation currently mutating
	// state under mu. finishLocked stamps it onto every buffered out message
	// and clears it, so propagated joins/prunes carry their cause
	// hop-by-hop. guarded by mu
	cur wire.TraceContext
}

// outItem is one hand-off generated under the lock. A nil msg is an interior
// membership change instead of a message: a root-domain entry's parent is
// the domain interior, so it attaches by joining (or, with leave, leaving)
// group as an interior member.
type outItem struct {
	target Target
	msg    wire.Message
	group  addr.Addr
	leave  bool
}

// New returns a Component.
func New(cfg Config) *Component {
	c := &Component{cfg: cfg, eg: Egress{Router: cfg.Router, Domain: cfg.Domain,
		Internal: cfg.Internal, SendPeer: cfg.SendPeer, MIGP: cfg.MIGP, Obs: cfg.Obs}}
	c.Reset() // a new speaker starts as a restarted one does: empty
	return c
}

// GroupEntry exposes the (*,G) target list for inspection: parent first,
// then children. ok is false when the router has no state for g.
func (c *Component) GroupEntry(g addr.Addr) (parent Target, children []Target, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _ := c.groups.Get(g)
	return e.listing()
}

// SourceEntry exposes the (S,G) target list.
func (c *Component) SourceEntry(s, g addr.Addr) (parent Target, children []Target, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srcs[sgKey{s, g}].listing()
}

// listing returns the entry's parent and a copy of its children, in
// cmpTargets order; ok is false for a nil entry.
func (e *entry) listing() (parent Target, children []Target, ok bool) {
	if e == nil {
		return Target{}, nil, false
	}
	return e.parent, append([]Target(nil), e.children...), true
}

// HasGroupState reports whether the router holds a (*,G) entry.
func (c *Component) HasGroupState(g addr.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups.Has(g)
}

// Orphaned reports whether g's tree interest is parked waiting for a
// G-RIB route (see Component.orphans).
func (c *Component) Orphaned(g addr.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orphans.Has(g)
}

// Reset drops every piece of forwarding and bookkeeping state, modeling a
// router process crash: the restarted BGMP speaker comes back empty and
// relearns its trees from fresh joins and route updates.
func (c *Component) Reset() {
	c.mu.Lock()
	c.groups, c.orphans = addr.Table[addr.Addr, *entry]{}, addr.Table[addr.Addr, *entry]{}
	c.srcs = map[sgKey]*entry{}
	c.encapFrom = map[sgKey]wire.RouterID{}
	c.importedSG = map[sgKey]bool{}
	c.out, c.evbuf = nil, nil
	c.joins, c.prunes = addr.FreeList[*wire.GroupJoin]{}, addr.FreeList[*wire.GroupPrune]{}
	c.free, c.arrays = addr.FreeList[*entry]{}, nil
	c.mu.Unlock()
}

// HasForwardingState is HasGroupState under the name migp.Border and
// dataplane.Backend use: a (*,G) entry is the only tree state.
func (c *Component) HasForwardingState(g addr.Addr) bool { return c.HasGroupState(g) }

// StateSize reports the number of (*,G) and (S,G) forwarding entries.
func (c *Component) StateSize() (groups, sources int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups.Len(), len(c.srcs)
}

// ---------------------------------------------------------------- joining

// LocalJoin is called by the MIGP component when a host in the domain has
// joined g and this router is the domain's best exit router for g. It adds
// the MIGP component as a child target, creating the (*,G) entry and
// propagating the join toward the root domain as needed.
func (c *Component) LocalJoin(g addr.Addr) {
	sp := c.cfg.Obs.Tracer().Begin(obs.SpanMemberJoin,
		obs.Event{Domain: c.cfg.Domain, Router: c.cfg.Router, Group: g})
	c.mu.Lock()
	c.cur = sp.Context()
	c.joinLocked(g, MIGPTarget)
	c.finishLocked()
	sp.End()
}

// LocalLeave undoes LocalJoin when no interior members remain.
func (c *Component) LocalLeave(g addr.Addr) {
	sp := c.cfg.Obs.Tracer().Begin(obs.SpanMemberLeave,
		obs.Event{Domain: c.cfg.Domain, Router: c.cfg.Router, Group: g})
	c.mu.Lock()
	c.cur = sp.Context()
	c.pruneLocked(g, MIGPTarget)
	c.finishLocked()
	sp.End()
}

// HandlePeer processes a BGMP message from an external peer.
func (c *Component) HandlePeer(from wire.RouterID, msg wire.Message) {
	c.handle(PeerTarget(from), msg)
}

// HandleFromBorder processes a message relayed through the MIGP from
// another border router of the same domain (the "internal BGMP peer" path
// of §5.2). Paper: A3, receiving the join from its MIGP component, adds the
// MIGP component as child target; the relaying border is kept in the target
// so its later prune removes only its own interest.
func (c *Component) HandleFromBorder(from wire.RouterID, msg wire.Message) {
	c.handle(MIGPToward(from), msg)
}

// handle applies one message that arrived from src: data enters the data
// plane; a join or prune runs under a per-hop span parented on the message's
// trace context (a no-op span when untraced), with src as the child target.
func (c *Component) handle(src Target, msg wire.Message) {
	var g, s addr.Addr
	var source, prune bool
	switch m := msg.(type) {
	case *wire.Data:
		c.Deliver(src, m)
		return
	case *wire.GroupJoin:
		g = m.Group
	case *wire.GroupPrune:
		g, prune = m.Group, true
	case *wire.SourceJoin:
		g, s, source = m.Group, m.Source, true
	case *wire.SourcePrune:
		g, s, source, prune = m.Group, m.Source, true, true
	default:
		return
	}
	name := obs.SpanJoinHop
	if prune {
		name = obs.SpanPruneHop
	}
	sp := c.cfg.Obs.Tracer().BeginChild(wire.ContextOf(msg), name,
		obs.Event{Domain: c.cfg.Domain, Router: c.cfg.Router, Peer: src.Router, Group: g})
	defer sp.End()
	c.mu.Lock()
	c.cur = sp.Context()
	switch {
	case source && prune:
		c.sourcePruneLocked(s, g, src)
	case source:
		c.sourceJoinLocked(s, g, src)
	case prune:
		c.pruneLocked(g, src)
	default:
		c.joinLocked(g, src)
	}
	c.finishLocked()
}

// joinLocked adds `child` to the (*,G) entry, creating it (and propagating
// the join toward the root domain) when absent.
func (c *Component) joinLocked(g addr.Addr, child Target) {
	c.eventLocked(obs.Event{Kind: obs.BGMPJoin, Group: g})
	e, ok := c.groups.Get(g)
	// grafted marks the join terminating at this router — it met existing
	// tree state or the root — which is when the branch is complete and the
	// origin-to-graft latency is observable.
	grafted := ok
	if !ok {
		up, ok2 := c.lookupGroup(g)
		if !ok2 {
			// No G-RIB route: park the interest as an orphan so the join
			// propagates the moment a covering route (re)appears.
			oe, had := c.orphans.Get(g)
			if !had {
				oe = c.newEntryLocked(upstream{})
				c.orphans.Set(g, oe)
			}
			c.addChildLocked(oe, child)
			return
		}
		e = c.newEntryLocked(up)
		c.groups.Set(g, e)
		c.attachLocked(g, up.parent, up.root)
		grafted = up.root
	}
	c.addChildLocked(e, child)
	if grafted {
		c.observeGraftLocked()
	}
}

// observeGraftLocked records the origin-to-graft latency for the traced
// join currently in flight (c.cur carries the chain root's start instant).
// Untraced joins, or tracers without a clock, observe nothing.
func (c *Component) observeGraftLocked() {
	if c.cur.Start == 0 {
		return
	}
	now := c.cfg.Obs.Tracer().Now()
	if now < c.cur.Start {
		return
	}
	c.cfg.Obs.Histogram(obs.HistJoinGraft, c.cfg.Domain, c.cfg.Router).Observe(now - c.cur.Start)
}

// pruneLocked removes `child` from the (*,G) entry, tearing the entry down
// (and propagating the prune) when the child list empties.
func (c *Component) pruneLocked(g addr.Addr, child Target) {
	c.eventLocked(obs.Event{Kind: obs.BGMPPrune, Group: g})
	e, ok := c.groups.Get(g)
	if !ok {
		// The group may be parked as an orphan (no route); retract the
		// child's interest there so a later rejoin is accurate.
		if oe, had := c.orphans.Get(g); had {
			c.removeChildLocked(oe, child)
			if len(oe.children) == 0 {
				c.orphans.Delete(g)
				c.giveEntryLocked(oe)
			}
		}
		return
	}
	c.removeChildLocked(e, child)
	if len(e.children) > 0 {
		return
	}
	c.groups.Delete(g)
	// Tear down dependent (S,G) state inherited from this entry; branch
	// state stands on its own.
	for k, se := range c.srcs {
		if k.group == g && se.sharedClone {
			delete(c.srcs, k)
			c.giveEntryLocked(se)
		}
	}
	for k := range c.importedSG {
		if k.group == g {
			delete(c.importedSG, k)
		}
	}
	c.detachLocked(g, e.parent, e.root)
	c.giveEntryLocked(e)
}

// attachLocked queues the upstream half of a (*,G) entry coming up: in the
// root domain there is no BGP next hop and the router becomes an interior
// member; elsewhere a GroupJoin goes to the parent (relayed through the MIGP
// when that is a sibling border).
func (c *Component) attachLocked(g addr.Addr, parent Target, root bool) {
	if root {
		c.out = append(c.out, outItem{group: g})
		return
	}
	m := takePtr(&c.joins)
	m.Group = g
	c.out = append(c.out, outItem{target: parent, msg: m})
}

// detachLocked undoes attachLocked for an entry going away or re-parenting.
func (c *Component) detachLocked(g addr.Addr, parent Target, root bool) {
	if root {
		c.out = append(c.out, outItem{group: g, leave: true})
		return
	}
	m := takePtr(&c.prunes)
	m.Group = g
	c.out = append(c.out, outItem{target: parent, msg: m})
}

// giveLocked clears the joins and prunes of a sent batch and puts them back
// on the free lists, and keeps the batch's array for the next one when out
// holds none as large: an operation a hand-over set off took an array of its
// own.
func (c *Component) giveLocked(out []outItem) {
	for _, it := range out {
		switch m := it.msg.(type) {
		case *wire.GroupJoin:
			*m = wire.GroupJoin{}
			c.joins.Give(m)
		case *wire.GroupPrune:
			*m = wire.GroupPrune{}
			c.prunes.Give(m)
		}
	}
	clear(out)
	if cap(out) > cap(c.out) {
		c.out = out[:0]
	}
}

// resolve looks a up in one RIB view and maps the entry through the
// egress's next-hop rule. The (*,G) parent (lookupGroup), the (S,G) parent
// (LookupSource) and the off-tree data path (LookupGroup) answer through
// here, and backupLocked's runner-up through the same Egress.Resolve. ok is
// false when the view is disabled or holds no covering route.
func (c *Component) resolve(lookup func(addr.Addr) (bgp.Entry, bool), a addr.Addr) (next Target, here, ok bool) {
	if lookup == nil {
		return Target{}, false, false
	}
	ent, ok := lookup(a)
	if !ok {
		return Target{}, false, false
	}
	next, here = c.eg.Resolve(ent)
	return next, here, true
}

// lookupGroup resolves g's (*,G) parent in the G-RIB; ok is false when no
// covering route exists.
func (c *Component) lookupGroup(g addr.Addr) (up upstream, ok bool) {
	up.parent, up.root, ok = c.resolve(c.cfg.LookupGroup, g)
	return up, ok
}

// backupLocked is where g's (*,G) entry would fail over to now: the G-RIB's
// runner-up for the prefix its best route matched, mapped through the
// egress's next-hop rule as the parent is. ok is false when failover is off
// (no LookupGroupBackup) or the G-RIB holds no runner-up. Caller holds c.mu.
func (c *Component) backupLocked(g addr.Addr) (Target, bool) {
	if c.cfg.LookupGroupBackup == nil {
		return Target{}, false
	}
	_, backup, ok, hasBackup := c.cfg.LookupGroupBackup(g)
	if !ok || !hasBackup {
		return Target{}, false
	}
	next, _ := c.eg.Resolve(backup)
	return next, true
}

// BackupParent reports where g's (*,G) entry would fail over to if its
// parent's session died now; ok is false when the router holds no entry for
// g or the G-RIB no runner-up.
func (c *Component) BackupParent(g addr.Addr) (Target, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.groups.Has(g) {
		return Target{}, false
	}
	return c.backupLocked(g)
}

// event queues an observability event for post-unlock emission, filling in
// the router's scope. Caller holds c.mu.
func (c *Component) eventLocked(e obs.Event) {
	if c.cfg.Obs == nil {
		return
	}
	e.Domain, e.Router = c.cfg.Domain, c.cfg.Router
	c.evbuf = append(c.evbuf, e)
}

// finishLocked ends an operation that mutated state under c.mu: it takes
// what the operation queued, stamping the messages with the operation's
// trace context, releases the lock the caller holds, and only then emits the
// events and hands the messages over — observers and the MIGP may call back
// into the router, and an operation they start takes messages, an out array
// and an event array of its own. Once every message is sent it gives them
// back, and the event array too, unless an operation the emission started
// gave back a larger one: with an observer, a join or prune then allocates
// no event array at each router it crosses.
func (c *Component) finishLocked() {
	// An empty c.out stays put: given back, it would be c.out again while
	// another goroutine's batch, queued into it meanwhile, is being sent.
	var out []outItem
	if len(c.out) > 0 {
		out, c.out = c.out, nil // an operation the hand-over starts takes an array of its own
	}
	evs := c.evbuf
	c.evbuf = nil
	if !c.cur.Zero() {
		for _, it := range out {
			wire.Stamp(it.msg, c.cur) // a nil msg (interior membership) carries none
		}
		c.cur = wire.TraceContext{}
	}
	c.mu.Unlock()
	for _, e := range evs {
		c.cfg.Obs.Emit(e)
	}
	for _, it := range out {
		switch {
		case it.msg != nil:
			c.eg.Send(it.target, it.msg)
		case it.leave:
			c.cfg.MIGP.LeaveGroup(it.group)
		default:
			c.cfg.MIGP.JoinGroup(it.group)
		}
	}
	if len(out) > 0 || len(evs) > 0 {
		c.mu.Lock()
		c.giveLocked(out)
		if cap(evs) > cap(c.evbuf) {
			c.evbuf = evs[:0]
		}
		c.mu.Unlock()
	}
}
