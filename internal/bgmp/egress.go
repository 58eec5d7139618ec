package bgmp

import (
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// Egress is the forwarding decision of one border router, stated once for
// every data plane: where a RIB entry says a join or packet goes next
// (Resolve, Toward) and the three ways it leaves the router (Send, ToPeer,
// Inject/Encap). The BGMP component and the stateless backends of
// internal/dataplane each build one from their Config and keep only their
// own bookkeeping on top. The fields mirror the Config fields of the same
// name; methods are safe for concurrent use.
type Egress struct {
	Router wire.RouterID
	Domain wire.DomainID
	// Internal reports whether a router is a border of this domain; nil
	// means the domain has no other border.
	Internal func(r wire.RouterID) bool
	SendPeer func(to wire.RouterID, msg wire.Message)
	MIGP     MIGP
	Obs      *obs.Observer
}

// Resolve maps a longest-match RIB entry to the next target toward the
// route's origin. here reports that the route ends at this domain — for a
// G-RIB entry, that this is the group's root domain (§5.2: no BGP next hop,
// the interior is the parent target). bgp sets NextHop to the own router
// exactly when Local, so the third test only restates the second for
// hand-built entries.
func (e *Egress) Resolve(ent bgp.Entry) (next Target, here bool) {
	if wire.DomainID(ent.Route.Origin) == e.Domain || ent.Local || ent.NextHop == e.Router {
		return MIGPTarget, true
	}
	return e.Toward(ent.NextHop), false
}

// Toward returns the target leading to nextHop: through the interior when it
// is a sibling border of this domain, else the peering with it.
func (e *Egress) Toward(nextHop wire.RouterID) Target {
	if e.Internal != nil && e.Internal(nextHop) {
		return MIGPToward(nextHop)
	}
	return PeerTarget(nextHop)
}

// Send hands msg to t unchanged: relayed through the interior to a sibling
// border, or on the session to an external peer. Control messages and
// border-to-border relays of data leave this way.
func (e *Egress) Send(t Target, msg wire.Message) {
	if t.MIGP {
		e.MIGP.RelayToBorder(t.Router, msg)
	} else {
		e.SendPeer(t.Router, msg)
	}
}

// ToPeer sends d across an inter-domain hop as it is; the router that
// receives it spends the hop's TTL, on the copy it decodes and alone owns. It
// reports false when no TTL is left to spend and the packet dropped.
func (e *Egress) ToPeer(to wire.RouterID, d *wire.Data) bool {
	if d.TTL <= 1 {
		return false
	}
	e.emit(obs.DataForwarded, to, d)
	e.SendPeer(to, d)
	return true
}

// Inject delivers d natively into the domain interior at this border, copied
// only to strip a backend header it still carries. When interior RPF refuses
// the entry point (§5.3) it returns the border router the interior expects
// d's source to enter at; the caller does its bookkeeping and then Encaps to
// it. Zero means delivered, or refused with nowhere to encapsulate to: dropped.
func (e *Egress) Inject(d *wire.Data) (expected wire.RouterID) {
	if d.Bits != nil || d.TunnelTo != 0 || d.Encap {
		d = &wire.Data{Group: d.Group, Source: d.Source, TTL: d.TTL, Payload: d.Payload}
	}
	if e.MIGP.Inject(d) {
		return 0
	}
	if exp := e.MIGP.ExpectedEntry(d.Source); exp != e.Router {
		return exp
	}
	return 0
}

// Encap unicast-encapsulates d through the interior to sibling border `to`,
// the second half of a refused Inject. d is the caller's own copy, built in
// storage it recycles: Encap marks it encapsulated, dropping any backend
// header, and relays it.
func (e *Egress) Encap(to wire.RouterID, d *wire.Data) {
	d.Bits, d.TunnelTo, d.Encap = nil, 0, true
	e.emit(obs.DataEncap, to, d)
	e.MIGP.RelayToBorder(to, d)
}

func (e *Egress) emit(kind obs.Kind, peer wire.RouterID, d *wire.Data) {
	if e.Obs != nil {
		e.Obs.Emit(obs.Event{Kind: kind, Domain: e.Domain, Router: e.Router,
			Peer: peer, Group: d.Group, Source: d.Source})
	}
}
