// Package core assembles the complete MASC/BGMP system: multi-domain
// networks of border routers running BGP-lite (unicast and G-RIB tables,
// and an M-RIB that RPF reads first but no world fills), the MASC
// claim-collide protocol, MAAS address servers, BGMP
// components, and an interior-protocol fabric per domain.
//
// It is the integration layer the examples, the bgmpd daemon, and the
// end-to-end tests build on: domains are added, linked, and then exercised
// through the small host-facing API (Join/Leave/Send/NewGroup).
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/transport"
	"mascbgmp/internal/wire"
)

// Config parameterizes a Network.
type Config struct {
	// Clock drives MASC waiting periods and lifetimes. Tests use a
	// simclock.Sim; defaults to the real clock.
	Clock simclock.Clock
	// Seed drives all randomized choices (claim selection, MAAS address
	// picks).
	Seed int64
	// MASCWait overrides the 48-hour claim waiting period.
	MASCWait time.Duration
	// SourceBranches enables §5.3 source-specific branches on every
	// border router.
	SourceBranches bool
	// Synchronous delivers inter-router messages in the calling goroutine,
	// in the frames TCP would carry, so runs are deterministic. Data
	// packets are encoded, decoded into a recycled packet and delivered by
	// nested call before Send returns; every other message is encoded at
	// Send into one FIFO of frames per network (an update folded into one
	// still waiting on its session and table), which the outermost call
	// delivers until it is empty, decoding each frame at delivery into the
	// one message of its type the network reuses. So a router hears each
	// peer in the order it sent, as over TCP, BGP converges breadth-first,
	// and Link, Unlink, AddDomain, Join, Leave and a MASC origination return
	// converged. Drive it from one goroutine at a time. Unset, every peering
	// is a real loopback TCP connection with background transport
	// goroutines, as in cmd/bgmpd.
	Synchronous bool
	// Observer receives protocol events and feeds the metrics registry:
	// MASC claims and collisions, BGP route churn, BGMP joins/prunes and
	// repairs, data-plane hops and deliveries, transport traffic. Nil
	// disables observation at zero cost.
	Observer *obs.Observer
	// Faults, when set, routes every peering message (and session
	// keepalive) through the fault plane: per-link drop/duplicate/
	// reorder/delay, partitions, and peer crashes all apply. The plane
	// must share the network's Clock; NewNetwork wires its peer hooks.
	Faults *faultinject.Plane
	// HoldTime enables session supervision on links made with Link: each
	// side sends keepalives every HoldTime/3, and a session that hears
	// nothing for HoldTime is declared down — BGP withdraws the peer's
	// routes, BGMP repairs, and reconnects are retried, the first after
	// HoldTime/2 and each later one after twice the wait before, up to 8×
	// the first. Zero disables supervision (links only fail via Unlink).
	HoldTime time.Duration
	// Liveness additionally runs a BFD-style fast detector
	// (internal/liveness) on every supervised session: probe intervals
	// ramp from HoldTime/3 down to 100ms, detection fires after three
	// missed intervals, and stable sessions quiesce into demand mode.
	// Hold timers keep running as the fallback detector. Requires
	// HoldTime (session supervision).
	Liveness bool
	// DataPlane selects the forwarding backend every border router runs:
	// one of dataplane.Names() — "shared-tree" (BGMP shared trees, the
	// default when empty), "bier" (per-packet domain bitstrings computed
	// at the root), or "map-encap" (unicast tunnels to the root domain).
	// Control-plane behavior (MASC, BGP, BGMP joins) is unaffected; only
	// how data packets travel between domains changes.
	DataPlane string
}

// ConfigError reports an invalid Config field combination.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for contradictions before any state is
// built. NewNetwork calls it; exported so callers can validate early.
func (c Config) Validate() error {
	if c.MASCWait < 0 {
		return &ConfigError{Field: "MASCWait", Reason: "must not be negative"}
	}
	if c.HoldTime < 0 {
		return &ConfigError{Field: "HoldTime", Reason: "must not be negative"}
	}
	if c.Liveness && c.HoldTime == 0 {
		return &ConfigError{Field: "Liveness", Reason: "needs HoldTime to enable session supervision"}
	}
	if c.DataPlane != "" && !dataplane.ValidName(c.DataPlane) {
		return &ConfigError{Field: "DataPlane", Reason: fmt.Sprintf(
			"unknown backend %q (valid: %s)", c.DataPlane, strings.Join(dataplane.Names(), ", "))}
	}
	return nil
}

// ErrNotLinked is returned (wrapped) by Unlink when the named routers have
// no peering to sever.
var ErrNotLinked = errors.New("core: routers not linked")

// Network is an in-process internetwork of MASC/BGMP domains.
type Network struct {
	cfg Config
	// tracker counts in-flight asynchronous messages for Quiesce.
	tracker *transport.Tracker

	mu       sync.Mutex
	domains  map[wire.DomainID]*Domain // guarded by mu
	routers  map[wire.RouterID]*Router // guarded by mu
	links    []link                    // guarded by mu
	sessions []*session                // guarded by mu
	// anchors maps each domain with a host prefix to its tunnel anchor
	// (domainAddr). AddDomain replaces it whole under mu, so the send path
	// reads it without a lock.
	anchors atomic.Pointer[map[wire.DomainID]addr.Addr]

	frameMu sync.Mutex
	// frame is the encode buffer a data packet's or a MASC message's round
	// trip reuses. guarded by frameMu
	frame []byte
	// packets are the free lists of decoded data packets, [1] of those with
	// a bitstring (so that decoding never drops its array): plain stacks, not
	// a sync.Pool, which a collection empties — what a send allocates must
	// not depend on the collector (DESIGN.md §17). guarded by frameMu
	packets [2][]*wire.Data
	// arena holds the frames of the control messages sent on a synchronous
	// network and not yet delivered, each the wire.AppendFrame bytes TCP
	// carries; an offset into it counts from the first byte it ever held, and
	// abase is the count of bytes slid off its front. guarded by frameMu
	arena []byte
	abase uint32 // guarded by frameMu
	// queue holds one entry per queued message, oldest at queue[qhead]; the
	// array is reused across drains. Entry number i sits at queue[i-qbase].
	// guarded by frameMu
	queue []queued
	qhead int // guarded by frameMu
	qbase int // guarded by frameMu
	// folds are the frames of updates folded into one still waiting, chained
	// from its entry (span.next); folds[0] is the chain's end. guarded by
	// frameMu
	folds []span
	// waiting finds the queued update, if any, from one router to another
	// for one table, by its entry number. guarded by frameMu
	waiting map[updateKey]int
	// rx is what a drain decodes each frame into. guarded by frameMu
	rx inbox
	// draining is set while a drain runs or a converge call holds the
	// queue. guarded by frameMu
	draining bool
	// sent is the payload of the latest Domain.Send, which a member's
	// Delivery shares when its bytes are the same. guarded by frameMu
	sent string
}

// updateKey names one session's stream of updates for one table.
type updateKey struct {
	from  wire.RouterID
	to    *Router
	table wire.Table
}

// span is one frame in Network.arena, [off, end), and the next update folded
// into the same delivery (an index into Network.folds, 0 for none).
type span struct {
	off, end, next uint32
}

// queued is one control message on its way to its receiver: its type and,
// for an update, its table, its frame, and the last update folded into it.
type queued struct {
	from  wire.RouterID
	typ   wire.MsgType
	table wire.Table
	to    *Router
	span
	last uint32
}

// inbox is the one message of each type a drain decodes a frame into. Each is
// its receiver's for the call it is handed to, and decoded over by the next
// delivery: a handler that keeps anything but an update's AS paths copies it.
// fold is the update a folded frame is decoded into.
type inbox struct {
	update, fold wire.Update
	join         wire.GroupJoin
	prune        wire.GroupPrune
	sourceJoin   wire.SourceJoin
	sourcePrune  wire.SourcePrune
	report       wire.MemberReport
}

// of returns the inbox message of type t, one of the types a router sends
// its peers other than data.
func (in *inbox) of(t wire.MsgType) wire.Message {
	switch t {
	case wire.TypeUpdate:
		return &in.update
	case wire.TypeGroupJoin:
		return &in.join
	case wire.TypeGroupPrune:
		return &in.prune
	case wire.TypeSourceJoin:
		return &in.sourceJoin
	case wire.TypeSourcePrune:
		return &in.sourcePrune
	case wire.TypeMemberReport:
		return &in.report
	}
	panic(fmt.Sprintf("core: no %v is sent to a peer", t))
}

type link struct {
	a, b *Router
}

// NewNetwork returns an empty network, or a *ConfigError when cfg is
// contradictory.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.MASCWait == 0 {
		cfg.MASCWait = 48 * time.Hour
	}
	// An attached tracer times spans on the network's clock (obs sits
	// below simclock in the layering, so the clock is injected here).
	cfg.Observer.Tracer().SetNow(cfg.Clock.Now)
	n := &Network{
		cfg:     cfg,
		tracker: &transport.Tracker{},
		domains: map[wire.DomainID]*Domain{},
		routers: map[wire.RouterID]*Router{},
		waiting: map[updateKey]int{},
	}
	n.anchors.Store(&map[wire.DomainID]addr.Addr{})
	if cfg.Faults != nil {
		cfg.Faults.SetPeerHooks(n.onPeerCrash, n.onPeerRestart)
	}
	return n, nil
}

// Clock returns the network's time source.
func (n *Network) Clock() simclock.Clock { return n.cfg.Clock }

// Observer returns the network's observer, nil when observation is off.
func (n *Network) Observer() *obs.Observer { return n.cfg.Observer }

// Domain returns a domain by ID, or nil.
func (n *Network) Domain(id wire.DomainID) *Domain {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.domains[id]
}

// Router returns a router by ID, or nil.
func (n *Network) Router(id wire.RouterID) *Router {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.routers[id]
}

// domainAddr returns the tunnel anchor address of a domain — the base of
// its unicast host prefix, which every router can resolve through the
// unicast RIB. The map-and-encap backend tunnels packets to it; BIER uses
// it to pick the next hop toward a bitstring member. Domains without a
// host prefix are unreachable as overlay members.
func (n *Network) domainAddr(id wire.DomainID) (addr.Addr, bool) {
	a, ok := (*n.anchors.Load())[id]
	return a, ok
}

// Domains returns all domains in ascending ID order.
func (n *Network) Domains() []*Domain {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Domain, 0, len(n.domains))
	for _, d := range n.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Link connects two border routers of different domains with an external
// BGP+BGMP peering (loopback TCP, or direct calls in synchronous networks).
func (n *Network) Link(a, b wire.RouterID) error {
	n.mu.Lock()
	ra, rb := n.routers[a], n.routers[b]
	n.mu.Unlock()
	if ra == nil || rb == nil {
		return fmt.Errorf("core: unknown router in link %d-%d", a, b)
	}
	if ra.domain == rb.domain {
		return fmt.Errorf("core: %d and %d are in the same domain; internal meshes are automatic", a, b)
	}
	if err := ra.connect(rb); err != nil {
		return err
	}
	n.mu.Lock()
	n.links = append(n.links, link{ra, rb})
	n.mu.Unlock()
	if n.cfg.HoldTime > 0 {
		s := newSession(n, ra, rb)
		n.mu.Lock()
		n.sessions = append(n.sessions, s)
		n.mu.Unlock()
		s.start()
	}
	return nil
}

// Unlink severs the peering between two border routers: both sides drop
// the session, BGP withdraws the routes learned over it, and BGMP repairs
// affected shared trees onto surviving paths.
func (n *Network) Unlink(a, b wire.RouterID) error {
	n.mu.Lock()
	ra, rb := n.routers[a], n.routers[b]
	linked := false
	for i, l := range n.links {
		if (l.a == ra && l.b == rb) || (l.a == rb && l.b == ra) {
			n.links = append(n.links[:i], n.links[i+1:]...)
			linked = true
			break
		}
	}
	var sess *session
	for i, s := range n.sessions {
		if (s.a == ra && s.b == rb) || (s.a == rb && s.b == ra) {
			n.sessions = append(n.sessions[:i], n.sessions[i+1:]...)
			sess = s
			break
		}
	}
	n.mu.Unlock()
	if sess != nil {
		sess.stop()
	}
	if ra == nil || rb == nil {
		return fmt.Errorf("core: unknown router in unlink %d-%d", a, b)
	}
	if !linked {
		return fmt.Errorf("%w: %d-%d", ErrNotLinked, a, b)
	}
	n.converge(func() {
		ra.dropPeer(b, wire.TraceContext{})
		rb.dropPeer(a, wire.TraceContext{})
	})
	return nil
}

// MASCPeerParentChild establishes the MASC parent-child peering between two
// domains (the child claims sub-ranges of the parent's space) and registers
// the child with the parent's sibling group.
func (n *Network) MASCPeerParentChild(parent, child wire.DomainID) error {
	p, c := n.Domain(parent), n.Domain(child)
	if p == nil || c == nil {
		return fmt.Errorf("core: unknown domain in MASC peering %d-%d", parent, child)
	}
	c.masc.SetParent(parent)
	// Existing children become the new child's siblings, and vice versa.
	p.mu.Lock()
	for _, sib := range p.mascChildren {
		n.Domain(sib).masc.AddSibling(child)
		c.masc.AddSibling(sib)
	}
	p.mascChildren = append(p.mascChildren, child)
	p.mu.Unlock()
	p.masc.AddChild(child)
	return nil
}

// MASCPeerSiblings registers two top-level domains as MASC siblings
// claiming from the shared 224/4 space.
func (n *Network) MASCPeerSiblings(a, b wire.DomainID) error {
	da, db := n.Domain(a), n.Domain(b)
	if da == nil || db == nil {
		return fmt.Errorf("core: unknown domain in sibling peering %d-%d", a, b)
	}
	da.masc.AddSibling(b)
	db.masc.AddSibling(a)
	return nil
}

// mascDeliver carries a MASC message between domains, exercising the wire
// codec on the way (the bilateral MASC peerings of §4.4).
func (n *Network) mascDeliver(from, to wire.DomainID, msg wire.Message) {
	target := n.Domain(to)
	if target == nil {
		return
	}
	decoded, err := n.roundTrip(msg)
	if err != nil {
		return
	}
	target.masc.HandleMessage(from, decoded)
}

// roundTrip returns msg as its receiver decodes it off the wire. wire.Decode
// copies everything out of the frame, so the one buffer is free again before
// the receiver runs and sends in turn. A data packet is decoded into the free
// list's top one: the receiver's until it returns and the caller recycles it.
func (n *Network) roundTrip(msg wire.Message) (wire.Message, error) {
	n.frameMu.Lock()
	defer n.frameMu.Unlock()
	n.frame = wire.AppendFrame(n.frame[:0], msg)
	if d, ok := msg.(*wire.Data); ok {
		if free := &n.packets[min(len(d.Bits), 1)]; len(*free) > 0 {
			into := (*free)[len(*free)-1]
			*free = (*free)[:len(*free)-1]
			return into, wire.DecodeInto(n.frame, into)
		}
	}
	return wire.Decode(n.frame)
}

// deliver queues a control message's frame for its receiver and, unless a
// drain is already running further up the stack, delivers the queue; msg is
// the caller's again when deliver returns. An update for a session and table
// that still has one waiting is folded into that one (supersede) when the
// waiting one is delivered, as by a speaker that rewrites its pending output
// to a peer: the receiver learns where the sender's routes are now, once,
// rather than every route the sender passed through on the way. Without
// it, the withdrawal of a prefix that became unreachable hunts down every
// alternative path, and breadth-first order makes that hunt hundreds of
// times longer than nesting did (DESIGN.md §5).
func (n *Network) deliver(from wire.RouterID, to *Router, msg wire.Message) {
	n.frameMu.Lock()
	off := n.abase + uint32(len(n.arena))
	n.arena = wire.AppendFrame(n.arena, msg)
	q := queued{from: from, typ: msg.Type(), to: to, span: span{off: off, end: n.abase + uint32(len(n.arena))}}
	if u, ok := msg.(*wire.Update); ok {
		q.table = u.Table
		k := updateKey{from, to, u.Table}
		if at, ok := n.waiting[k]; ok {
			n.foldLocked(&n.queue[at-n.qbase], q.span) // a waiting update means a drain is running
			n.frameMu.Unlock()
			return
		}
		n.waiting[k] = n.qbase + len(n.queue)
	}
	n.queue = append(n.queue, q)
	if n.draining {
		n.frameMu.Unlock()
		return
	}
	n.draining = true
	n.drainLocked()
}

// foldLocked chains the frame at s to the end of q's folds, so that it is
// delivered in q's place.
func (n *Network) foldLocked(q *queued, s span) {
	if len(n.folds) == 0 {
		n.folds = append(n.folds, span{}) // the chain's end
	}
	i := uint32(len(n.folds))
	n.folds = append(n.folds, s)
	if q.last == 0 {
		q.next = i
	} else {
		n.folds[q.last].next = i
	}
	q.last = i
}

// frameLocked returns the bytes of the frame at s.
func (n *Network) frameLocked(s span) []byte {
	return n.arena[s.off-n.abase : s.end-n.abase]
}

// openLocked decodes q's frame into the inbox message of its type and
// supersedes it by each update folded into it, in the order they were sent;
// nil when the frame does not decode.
func (n *Network) openLocked(q *queued) wire.Message {
	msg := n.rx.of(q.typ)
	if wire.DecodeInto(n.frameLocked(q.span), msg) != nil {
		return nil
	}
	for i := q.next; i != 0; i = n.folds[i].next {
		if wire.DecodeInto(n.frameLocked(n.folds[i]), &n.rx.fold) == nil {
			supersede(&n.rx.update, &n.rx.fold)
			clear(n.rx.fold.Routes) // its paths are the update's now
		}
	}
	return msg
}

// supersede folds u into q, the update still waiting on the same session and
// table: each prefix u names leaves q's lists, and u's lists are appended.
func supersede(q, u *wire.Update) {
	named := func(p addr.Prefix) bool {
		return slices.Contains(u.Withdrawn, p) ||
			slices.ContainsFunc(u.Routes, func(rt wire.Route) bool { return rt.Prefix == p })
	}
	q.Withdrawn = append(slices.DeleteFunc(q.Withdrawn, named), u.Withdrawn...)
	q.Routes = append(slices.DeleteFunc(q.Routes, func(rt wire.Route) bool { return named(rt.Prefix) }), u.Routes...)
}

// converge runs fn with every control message it sends held in the queue,
// and then — unless a drain is already running further up the stack —
// delivers the queue. Held, a speaker's whole batch is queued before the
// replies to its first update can change its selection again: otherwise a
// RemoveNeighbor's later updates, stale by then, would reach their peers
// after the fresher ones the drain made it send, and stay
// (TestRIBsConvergeToShortestPaths). A peering going down or up changes
// both ends in one fn, so no router hears of it before both ends have.
func (n *Network) converge(fn func()) {
	n.frameMu.Lock()
	outer := !n.draining
	n.draining = true
	n.frameMu.Unlock()
	fn()
	if outer {
		n.frameMu.Lock()
		n.drainLocked()
	}
}

// Past these, a drain that empties the queue drops the folds and the inbox's
// route lists rather than keep them for the next one, and trades the arena
// for one of keptArena bytes: a join's drain stays well inside, a link
// coming up does not. The arena is traded, not dropped, so that the joins
// after a flap do not grow a new one again from nothing.
const (
	keptArena  = 4 << 10
	keptFolds  = 64
	keptRoutes = 64
)

// drainLocked, called with frameMu held and draining set, delivers the queue
// in arrival order until it is empty, then clears draining and unlocks. So a
// router hears each peer in the order it sent: delivered by nested call, a
// prune overtook a join not yet handed over (TestFlapsKeepTreesValid). Each
// frame is decoded as it leaves the queue, into the inbox.
func (n *Network) drainLocked() {
	for n.qhead < len(n.queue) {
		q := n.queue[n.qhead]
		if q.typ == wire.TypeUpdate {
			delete(n.waiting, updateKey{q.from, q.to, q.table})
		}
		msg := n.openLocked(&q)
		n.queue[n.qhead] = queued{}
		n.qhead++
		if 2*n.qhead >= len(n.queue) {
			n.slideLocked()
		}
		n.frameMu.Unlock()
		if msg != nil {
			q.to.dispatch(q.from, msg)
		}
		n.frameMu.Lock()
		if msg == &n.rx.update {
			clear(n.rx.update.Routes) // the receiver keeps the AS paths; the inbox holds none
		}
	}
	if cap(n.arena) > keptArena {
		n.arena = make([]byte, 0, keptArena)
	}
	if cap(n.folds) > keptFolds {
		n.folds = nil
	}
	for _, u := range []*wire.Update{&n.rx.update, &n.rx.fold} {
		if cap(u.Routes) > keptRoutes || cap(u.Withdrawn) > keptRoutes {
			u.Routes, u.Withdrawn = nil, nil
		}
	}
	n.draining = false
	n.frameMu.Unlock()
}

// slideLocked moves what is left of the queue to the front of its array, and
// the frames it holds to the front of the arena: the array stays about twice
// the queue's longest, however many messages a drain delivers, and the arena
// about the bytes it holds. The head's frame is the arena's first live byte,
// because an update folded into an entry is sent after that entry's frame.
func (n *Network) slideLocked() {
	left := copy(n.queue, n.queue[n.qhead:])
	clear(n.queue[left:])
	n.queue, n.qbase, n.qhead = n.queue[:left], n.qbase+n.qhead, 0
	if left == 0 {
		n.abase += uint32(len(n.arena))
		n.arena, n.folds = n.arena[:0], n.folds[:0]
		return
	}
	lo := n.queue[0].off - n.abase
	n.arena = n.arena[:copy(n.arena, n.arena[lo:])]
	n.abase += lo
}

// recycle frees a data packet roundTrip decoded, once its receiver has returned.
func (n *Network) recycle(d *wire.Data) {
	n.frameMu.Lock()
	free := &n.packets[min(len(d.Bits), 1)]
	*free = append(*free, d)
	n.frameMu.Unlock()
}

// Quiesce blocks until every in-flight asynchronous message — including
// cascades a handler triggers — has been fully processed, or until timeout
// elapses, returning an error wrapping transport.ErrQuiesceTimeout.
// Synchronous networks are always quiescent.
func (n *Network) Quiesce(timeout time.Duration) error {
	if n.cfg.Synchronous {
		return nil
	}
	return n.tracker.Quiesce(timeout)
}
