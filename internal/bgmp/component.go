package bgmp

import (
	"sort"
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
	// any transit state the interior protocol needs.
	RelayToBorder(to wire.RouterID, msg wire.Message)
	// Inject delivers a multicast packet into the domain at this border
	// router: the interior protocol distributes it to interior members
	// and to the other border routers with state for the group. The
	// return value is false when interior RPF would drop the packet
	// (the packet entered at the wrong border router for its source, the
	// encapsulation case of §5.3) — the caller must encapsulate instead.
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
	// LookupGroup resolves a group address in the G-RIB.
	LookupGroup func(g addr.Addr) (bgp.Entry, bool)
	// LookupGroupBackup resolves the runner-up G-RIB candidate for a
	// group — the route the decision process would pick if the current
	// best's peer vanished. Set, it arms precomputed backup parents so
	// PeerDown can switch a tree over without re-querying the G-RIB; nil
	// disables them (repair then waits for the BGP withdrawal).
	LookupGroupBackup func(g addr.Addr) (bgp.Entry, bool)
	// LookupSource resolves a source address for RPF-style forwarding
	// (the M-RIB view, falling back to unicast).
	LookupSource func(s addr.Addr) (bgp.Entry, bool)
	// Internal reports whether a router ID is a border router of this
	// same domain.
	Internal func(r wire.RouterID) bool
	// SendPeer transmits a BGMP message to an external peer.
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
	groups map[addr.Addr]*entry // guarded by mu
	srcs   map[sgKey]*entry     // guarded by mu
	// prefixes holds (*,G-prefix) aggregated forwarding state (§7); see
	// aggregate.go. guarded by mu
	prefixes map[addr.Prefix]*entry
	// encapFrom remembers, per (S,G), the internal border router that is
	// encapsulating data to us, so we can source-prune it once the
	// source-specific branch delivers. guarded by mu
	encapFrom map[sgKey]wire.RouterID
	// importedSG marks (S,G) flows this router itself encapsulates into
	// the domain: interior copies of them are its own reflux and must not
	// be re-exported up the shared tree (they would loop B2↔F1 in the
	// paper's Fig 3(b) topology). guarded by mu
	importedSG map[sgKey]bool
	// orphans parks (*,G) entries whose G-RIB route vanished (or never
	// existed at join time). The child list is kept so that when a
	// covering route reappears — a session recovered, BGP resynced —
	// RouteChanged can re-attach the tree without waiting for downstream
	// routers to re-issue joins. Orphans hold no forwarding state.
	// guarded by mu
	orphans map[addr.Addr]*entry
	// out buffers messages generated under the lock. guarded by mu
	out []outItem
	// evbuf collects events under the lock; they are emitted with the
	// out-queue after release so observers may call back into the router.
	// guarded by mu
	evbuf []obs.Event
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

// Router returns the component's router ID.
func (c *Component) Router() wire.RouterID { return c.cfg.Router }

// GroupEntry exposes the (*,G) target list for inspection: parent first,
// then children. ok is false when the router has no state for g.
func (c *Component) GroupEntry(g addr.Addr) (parent Target, children []Target, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups[g].listing()
}

// SourceEntry exposes the (S,G) target list.
func (c *Component) SourceEntry(s, g addr.Addr) (parent Target, children []Target, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srcs[sgKey{s, g}].listing()
}

// listing returns the entry's parent and its children in sortTargets order;
// ok is false for a nil entry.
func (e *entry) listing() (parent Target, children []Target, ok bool) {
	if e == nil {
		return Target{}, nil, false
	}
	for t := range e.children {
		children = append(children, t)
	}
	sortTargets(children)
	return e.parent, children, true
}

// sortTargets orders a target list by router ID, MIGP targets first on a
// tie, so entry listings never depend on map iteration order.
func sortTargets(ts []Target) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Router != ts[j].Router {
			return ts[i].Router < ts[j].Router
		}
		return ts[i].MIGP && !ts[j].MIGP
	})
}

// HasGroupState reports whether the router holds an exact (*,G) entry.
func (c *Component) HasGroupState(g addr.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.groups[g]
	return ok
}

// Orphaned reports whether g's tree interest is parked waiting for a
// G-RIB route (see Component.orphans).
func (c *Component) Orphaned(g addr.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.orphans[g]
	return ok
}

// Reset drops every piece of forwarding and bookkeeping state, modeling a
// router process crash: the restarted BGMP speaker comes back empty and
// relearns its trees from fresh joins and route updates.
func (c *Component) Reset() {
	c.mu.Lock()
	c.groups = map[addr.Addr]*entry{}
	c.srcs = map[sgKey]*entry{}
	c.prefixes = nil
	c.encapFrom = map[sgKey]wire.RouterID{}
	c.importedSG = map[sgKey]bool{}
	c.orphans = map[addr.Addr]*entry{}
	c.out, c.evbuf = nil, nil
	c.mu.Unlock()
}

// HasForwardingState reports whether the router can forward g's data from
// tree state: an exact (*,G) entry or covering (*,G-prefix) state.
func (c *Component) HasForwardingState(g addr.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.groups[g]; ok {
		return true
	}
	return c.prefixEntryForLocked(g) != nil
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
// the join toward the root domain) when absent. A group covered by
// aggregated (*,G-prefix) state is re-materialized first, keeping control
// traffic per-group precise.
func (c *Component) joinLocked(g addr.Addr, child Target) {
	c.eventLocked(obs.Event{Kind: obs.BGMPJoin, Group: g})
	e, ok := c.groups[g]
	if !ok {
		if me := c.materializeLocked(g); me != nil {
			me.addChild(child)
			c.observeGraftLocked()
			return
		}
	}
	// grafted marks the join terminating at this router — it met existing
	// tree state or the root — which is when the branch is complete and the
	// origin-to-graft latency is observable.
	grafted := ok
	if !ok {
		parent, root, ok2 := c.resolve(c.cfg.LookupGroup, g)
		if !ok2 {
			// No G-RIB route: park the interest as an orphan so the join
			// propagates the moment a covering route (re)appears.
			oe, had := c.orphans[g]
			if !had {
				oe = newEntry(Target{}, false)
				c.orphans[g] = oe
			}
			oe.addChild(child)
			return
		}
		e = newEntry(parent, root)
		c.armBackupLocked(e, g)
		c.groups[g] = e
		c.attachLocked(g, parent, root)
		grafted = root
	}
	e.addChild(child)
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
	e, ok := c.groups[g]
	if !ok {
		e = c.materializeLocked(g)
		if e == nil {
			// The group may be parked as an orphan (no route); retract the
			// child's interest there so a later rejoin is accurate.
			if oe, had := c.orphans[g]; had {
				oe.removeChild(child)
				if len(oe.children) == 0 {
					delete(c.orphans, g)
				}
			}
			return
		}
	}
	e.removeChild(child)
	if len(e.children) > 0 {
		return
	}
	delete(c.groups, g)
	// Tear down dependent (S,G) state inherited from this entry; branch
	// state stands on its own.
	for k, se := range c.srcs {
		if k.group == g && se.sharedClone {
			delete(c.srcs, k)
		}
	}
	for k := range c.importedSG {
		if k.group == g {
			delete(c.importedSG, k)
		}
	}
	c.detachLocked(g, e.parent, e.root)
}

// attachLocked queues the upstream half of a (*,G) entry coming up: in the
// root domain there is no BGP next hop and the router becomes an interior
// member; elsewhere a GroupJoin goes to the parent (relayed through the MIGP
// when that is a sibling border).
func (c *Component) attachLocked(g addr.Addr, parent Target, root bool) {
	if root {
		c.out = append(c.out, outItem{group: g})
	} else {
		c.out = append(c.out, outItem{target: parent, msg: &wire.GroupJoin{Group: g}})
	}
}

// detachLocked undoes attachLocked for an entry going away or re-parenting.
func (c *Component) detachLocked(g addr.Addr, parent Target, root bool) {
	if root {
		c.out = append(c.out, outItem{group: g, leave: true})
	} else {
		c.out = append(c.out, outItem{target: parent, msg: &wire.GroupPrune{Group: g}})
	}
}

// resolve looks a up in one RIB view and maps the entry through the
// egress's next-hop rule. The (*,G) parent (LookupGroup), its precomputed
// backup (LookupGroupBackup), the (S,G) parent (LookupSource) and the
// off-tree data path all answer through here, so a backup is sound by
// construction: it is resolved by the rule that resolved the primary. ok is
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

// armBackupLocked (re)computes e's fallback parent: the runner-up G-RIB
// candidate for g. Caller holds c.mu.
func (c *Component) armBackupLocked(e *entry, g addr.Addr) {
	e.backup, _, e.hasBackup = c.resolve(c.cfg.LookupGroupBackup, g)
}

// BackupParent exposes g's precomputed fallback parent; ok is false when
// none is armed.
func (c *Component) BackupParent(g addr.Addr) (Target, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.groups[g]
	if !ok || !e.hasBackup {
		return Target{}, false
	}
	return e.backup, true
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
// into the router.
func (c *Component) finishLocked() {
	out, evs := c.out, c.evbuf
	c.out, c.evbuf = nil, nil
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
}
