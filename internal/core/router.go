package core

import (
	"fmt"
	"net"
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/transport"
	"mascbgmp/internal/wire"
)

// Router is one border router: a BGP-lite speaker, a BGMP component, and
// the forwarding backend selected by Config.DataPlane, attached to its
// domain's interior fabric.
type Router struct {
	ID     wire.RouterID
	domain *Domain

	bgp  *bgp.Speaker
	bgmp *bgmp.Component
	// backend is the router's forwarding plane: every data packet and
	// backend control message goes through it. The default shared-tree
	// backend delegates straight to bgmp.
	backend dataplane.Backend

	mu    sync.Mutex
	peers map[wire.RouterID]sender // guarded by mu
	// internalPeers marks same-domain peers. guarded by mu
	internalPeers map[wire.RouterID]bool
}

// sender abstracts the delivery path to one peer: a transport.Peer in
// asynchronous mode, a direct dispatch in synchronous mode. A message is the
// caller's again when Send returns — a *wire.Data is a recycled packet, soon
// decoded over, and the rest are reused by their senders too — so a sender
// that delivers later, or twice, copies first (faultSender).
type sender interface {
	Send(msg wire.Message) error
	Close() error
}

// directSender delivers in the caller's goroutine, in the bytes TCP carries
// (no goroutines): a data packet after an encode/decode round trip by nested
// call, to recycle it, and the rest as frames in Network.deliver's queue,
// each decoded when it leaves.
type directSender struct {
	from wire.RouterID
	to   *Router
}

func (d directSender) Send(msg wire.Message) error {
	n := d.to.domain.net
	if _, ok := msg.(*wire.Data); !ok {
		n.deliver(d.from, d.to, msg)
		return nil
	}
	decoded, err := n.roundTrip(msg)
	if err != nil {
		return err
	}
	m := decoded.(*wire.Data)
	d.to.dispatch(d.from, m)
	n.recycle(m)
	return nil
}

func (directSender) Close() error { return nil }

// faultSender routes an outbound peering message through the fault plane
// before the real sender sees it: drops vanish, duplicates send twice,
// reordered and delayed messages arrive when the plane releases them.
// Data packets are classified Data; everything else (BGP updates, BGMP
// joins/prunes, notifications) is Control.
type faultSender struct {
	plane    *faultinject.Plane
	from, to wire.RouterID
	inner    sender
}

func (f *faultSender) Send(msg wire.Message) error {
	class := faultinject.Control
	if _, ok := msg.(*wire.Data); ok {
		class = faultinject.Data
	}
	// The plane may run the closure after Send has returned, or twice: it
	// holds the message's frame and hands on a copy of its own each time.
	frame := wire.Encode(msg)
	f.plane.Deliver(f.from, f.to, class, func() {
		if m, err := wire.Decode(frame); err == nil {
			_ = f.inner.Send(m)
		}
	})
	return nil
}

func (f *faultSender) Close() error { return f.inner.Close() }

// newRouter builds a router and registers it with the fabric.
func newRouter(n *Network, d *Domain, id wire.RouterID, at migp.Node, export bgp.ExportFilter) (*Router, error) {
	n.mu.Lock()
	if _, dup := n.routers[id]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: duplicate router %d", id)
	}
	n.mu.Unlock()

	r := &Router{
		ID:            id,
		domain:        d,
		peers:         map[wire.RouterID]sender{},
		internalPeers: map[wire.RouterID]bool{},
	}
	r.bgp = bgp.New(bgp.Config{
		Router:           id,
		Domain:           d.ID,
		Clock:            n.cfg.Clock,
		Export:           export,
		AggregateCovered: true,
		Obs:              n.cfg.Observer,
		Send: func(to wire.RouterID, u *wire.Update) {
			r.sendTo(to, u)
		},
		OnBestChange: func(table wire.Table, p addr.Prefix, lost bool, ctx wire.TraceContext) {
			if table == wire.TableGRIB {
				// Re-attach shared trees whose path to the root domain
				// changed (BGMP tree repair), or flush overlay member
				// reports that were waiting for a route to the root.
				r.backend.RouteChanged(p, ctx)
			}
		},
	})
	migpAdapter := d.fabric.AttachBorder(id, at)
	// The RIB views the BGMP component and the stateless backends share.
	lookupGroup := func(g addr.Addr) (bgp.Entry, bool) {
		return r.bgp.Lookup(wire.TableGRIB, g)
	}
	r.bgmp = bgmp.New(bgmp.Config{
		Router:      id,
		Domain:      d.ID,
		LookupGroup: lookupGroup,
		LookupGroupBackup: func(g addr.Addr) (best, backup bgp.Entry, ok, hasBackup bool) {
			return r.bgp.LookupBackup(wire.TableGRIB, g)
		},
		LookupSource:        r.lookupSource,
		Internal:            r.isInternal,
		SendPeer:            r.sendTo,
		MIGP:                migpAdapter,
		BuildSourceBranches: n.cfg.SourceBranches,
		Obs:                 n.cfg.Observer,
	})
	switch n.cfg.DataPlane {
	case "", dataplane.SharedTreeName:
		r.backend = dataplane.NewSharedTree(r.bgmp)
	default:
		dcfg := dataplane.Config{
			Router:      id,
			Domain:      d.ID,
			LookupGroup: lookupGroup,
			LookupUnicast: func(a addr.Addr) (bgp.Entry, bool) {
				return r.bgp.Lookup(wire.TableUnicast, a)
			},
			UnicastGeneration: func() uint64 { return r.bgp.Generation(wire.TableUnicast) },
			Internal:          r.isInternal,
			SendPeer:          r.sendTo,
			MIGP:              migpAdapter,
			DomainAddr:        n.domainAddr,
			SourceDomain: func(s addr.Addr) (wire.DomainID, bool) {
				e, ok := r.lookupSource(s)
				return e.Route.Origin, ok
			},
			Store: d.dpStore,
			Obs:   n.cfg.Observer,
		}
		if n.cfg.DataPlane == dataplane.BIERName {
			r.backend = dataplane.NewBIER(dcfg)
		} else {
			r.backend = dataplane.NewMapEncap(dcfg)
		}
	}
	d.fabric.SetComponent(id, borderFront{r})
	return r, nil
}

// lookupSource is the router's RPF view of a unicast source (§2): its M-RIB
// route, else its unicast route. No world originates into the M-RIB, so
// every source resolves through the unicast table; a multicast topology
// incongruent with unicast is an M-RIB origination away, with no code.
func (r *Router) lookupSource(s addr.Addr) (bgp.Entry, bool) {
	if e, ok := r.bgp.Lookup(wire.TableMRIB, s); ok {
		return e, true
	}
	return r.bgp.Lookup(wire.TableUnicast, s)
}

// borderFront adapts the router's forwarding backend to migp.Border: the
// fabric's data and relay traffic reaches the selected data plane, while
// BGMP control messages relayed between sibling borders keep flowing to
// the BGMP component regardless of backend.
type borderFront struct{ r *Router }

func (f borderFront) LocalJoin(g addr.Addr)  { f.r.backend.LocalJoin(g) }
func (f borderFront) LocalLeave(g addr.Addr) { f.r.backend.LocalLeave(g) }

func (f borderFront) Deliver(src bgmp.Target, d *wire.Data) {
	f.r.backend.Deliver(src, d)
}

func (f borderFront) HandleFromBorder(from wire.RouterID, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Data:
		f.r.backend.Deliver(bgmp.MIGPToward(from), m)
	case *wire.MemberReport:
		f.r.backend.HandleControl(bgmp.MIGPToward(from), m)
	default:
		f.r.bgmp.HandleFromBorder(from, msg)
	}
}

func (f borderFront) HasForwardingState(g addr.Addr) bool {
	return f.r.backend.HasForwardingState(g)
}

// BGP returns the router's BGP speaker.
func (r *Router) BGP() *bgp.Speaker { return r.bgp }

// BGMP returns the router's BGMP component.
func (r *Router) BGMP() *bgmp.Component { return r.bgmp }

// DataPlane returns the router's forwarding backend.
func (r *Router) DataPlane() dataplane.Backend { return r.backend }

// Domain returns the owning domain.
func (r *Router) Domain() *Domain { return r.domain }

func (r *Router) isInternal(id wire.RouterID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.internalPeers[id]
}

func (r *Router) sendTo(to wire.RouterID, msg wire.Message) {
	r.mu.Lock()
	p := r.peers[to]
	r.mu.Unlock()
	if p != nil {
		_ = p.Send(msg)
	}
}

// dispatch demultiplexes an inbound message to the right component.
func (r *Router) dispatch(from wire.RouterID, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Update:
		r.bgp.HandleUpdate(from, m)
	case *wire.GroupJoin, *wire.GroupPrune, *wire.SourceJoin, *wire.SourcePrune:
		r.bgmp.HandlePeer(from, msg)
	case *wire.Data:
		// The receiver spends the hop's TTL, on the copy it decoded: the
		// sender's packet is one its other targets still read (Egress.ToPeer).
		if m.TTL > 0 {
			m.TTL--
		}
		r.backend.Deliver(bgmp.PeerTarget(from), m)
	case *wire.MemberReport:
		r.backend.HandleControl(bgmp.PeerTarget(from), m)
	}
}

// connect wires r and other with a bidirectional peering: loopback TCP
// with background receive loops, or direct dispatch in synchronous
// networks. Both speakers register the neighbor and run the
// initial route exchange, both tables in flight before either arrives.
func (r *Router) connect(other *Router) error {
	internal := r.domain == other.domain
	// faulty wraps a sender in the network's fault plane, when one is
	// configured. Internal-mesh links pass through it too: per-link fault
	// settings default to clean, and a crashed router must go silent on
	// every interface.
	faulty := func(s sender, from, to wire.RouterID) sender {
		if p := r.domain.net.cfg.Faults; p != nil {
			return &faultSender{plane: p, from: from, to: to, inner: s}
		}
		return s
	}

	if r.domain.net.cfg.Synchronous {
		r.addPeer(other.ID, faulty(directSender{from: r.ID, to: other}, r.ID, other.ID), internal)
		other.addPeer(r.ID, faulty(directSender{from: other.ID, to: r}, other.ID, r.ID), internal)
	} else {
		ca, cb, err := dialPair()
		if err != nil {
			return err
		}
		nw := r.domain.net
		// Two directed streams shared by the session's two ends, so the
		// network tracker sees each message from send commit to handler
		// completion (Quiesce support).
		ab, ba := nw.tracker.NewFlight(), nw.tracker.NewFlight()
		done := make(chan error, 1)
		var pa, pb *transport.Peer
		go func() {
			var err2 error
			pa, err2 = transport.StartPeer(ca, transport.PeerConfig{
				Local:   wire.Open{Router: r.ID, Domain: r.domain.ID},
				Handler: func(_ *transport.Peer, m wire.Message) { r.dispatch(other.ID, m) },
				Out:     ab,
				In:      ba,
				Obs:     nw.cfg.Observer,
			})
			done <- err2
		}()
		pb, err = transport.StartPeer(cb, transport.PeerConfig{
			Local:   wire.Open{Router: other.ID, Domain: other.domain.ID},
			Handler: func(_ *transport.Peer, m wire.Message) { other.dispatch(r.ID, m) },
			Out:     ba,
			In:      ab,
			Obs:     nw.cfg.Observer,
		})
		if err != nil {
			return err
		}
		if err := <-done; err != nil {
			return err
		}
		r.addPeer(other.ID, faulty(pa, r.ID, other.ID), internal)
		other.addPeer(r.ID, faulty(pb, other.ID, r.ID), internal)
	}

	r.bgp.AddNeighbor(bgp.Neighbor{Router: other.ID, Domain: other.domain.ID, Internal: internal})
	other.bgp.AddNeighbor(bgp.Neighbor{Router: r.ID, Domain: r.domain.ID, Internal: internal})
	r.domain.net.converge(func() {
		r.bgp.Sync(other.ID)
		other.bgp.Sync(r.ID)
	})
	return nil
}

// dialPair returns the two ends of a fresh loopback TCP connection.
func dialPair() (*transport.MsgConn, *transport.MsgConn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted := <-ch
	if accepted.err != nil {
		dialed.Close()
		return nil, nil, accepted.err
	}
	return transport.NewMsgConn(accepted.c), transport.NewMsgConn(dialed), nil
}

func (r *Router) addPeer(id wire.RouterID, s sender, internal bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers[id] = s
	if internal {
		r.internalPeers[id] = true
	}
}

// dropPeer severs the session with a peer: the sender closes, BGP forgets
// the neighbor (withdrawing its routes, which triggers BGMP tree repair),
// and BGMP drops child targets pointing at it. ctx carries the teardown's
// causal trace (zero for administrative unlinks). Callers drop both ends of
// a peering inside one Network.converge.
func (r *Router) dropPeer(id wire.RouterID, ctx wire.TraceContext) {
	r.mu.Lock()
	s := r.peers[id]
	delete(r.peers, id)
	delete(r.internalPeers, id)
	r.mu.Unlock()
	if s != nil {
		_ = s.Close()
	}
	r.bgmp.PeerDown(id, ctx)
	r.bgp.RemoveNeighbor(id, ctx)
}
