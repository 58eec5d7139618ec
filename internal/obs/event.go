// Package obs is the protocol observability layer: a typed event bus and
// an atomic-counter metrics registry shared by every protocol subsystem
// (MASC, BGP-lite, BGMP, the transport, and the network assembly).
//
// The paper's entire evaluation is about observable protocol behavior —
// address-space utilization, G-RIB size, claim/collision churn, join/prune
// traffic (§4.3.3, §5.4) — and the instrumented layers report exactly
// those quantities. Components hold an *Observer and call Emit; a nil
// Observer (and a nil Counter, Histogram, Tracer) is a no-op everywhere, so
// un-observed hot paths pay a single branch.
//
// Layering: obs sits below transport and above wire/addr/simclock in the
// internal import DAG. It imports only wire, addr, and the standard
// library; every protocol package may import it.
package obs

import (
	"fmt"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// Kind enumerates the event types the protocol layers emit.
type Kind uint8

const (
	// KindInvalid is the zero Kind; Emit ignores events carrying it.
	KindInvalid Kind = iota

	// MASC address-allocation events (§4.1, §4.3).
	MASCClaim     // a claim was selected and announced
	MASCCollision // a collision was received for one of our claims
	MASCWon       // a claim survived its waiting period
	MASCExpired   // a holding lapsed at its lifetime
	MASCRenewed   // a holding's lifetime was extended
	MASCReleased  // a holding was given up before expiry

	// BGP-lite route events (§4.2).
	BGPAnnounce   // a route was advertised to a peer
	BGPWithdraw   // a route was withdrawn from a peer
	BGPBestChange // the best route for a prefix changed (lost when Count==0 handled via Event.Lost)

	// BGMP tree events (§5).
	BGMPJoin   // a (*,G) or (S,G) join was processed
	BGMPPrune  // a (*,G) or (S,G) prune was processed
	BGMPRepair // a shared tree re-attached after a route change or peer failure

	// Data-plane events.
	DataForwarded // a data packet crossed an inter-domain peering
	DataEncap     // a data packet was unicast-encapsulated to another border router (§5.3)
	DataDelivered // a data packet reached an interior member

	// Transport events.
	TransportSent // a wire message was written to a peering session
	TransportRecv // a wire message was read from a peering session

	// MAAS events.
	MAASLease // a group address was leased to an application

	// Fault-injection events (internal/faultinject): every fault the
	// plane applies is observable, so chaos experiments can reconcile
	// injected faults against the recovery actions they provoked.
	FaultDrop      // a message was silently dropped on a link
	FaultDup       // a message was delivered twice
	FaultReorder   // a message was held and delivered out of order
	FaultDelay     // a message's delivery was delayed through the clock
	FaultPartition // a link was partitioned (all traffic dropped)
	FaultHeal      // a partition healed
	FaultCrash     // a peer (border router process) crashed
	FaultRestart   // a crashed peer restarted

	// Peering-session lifecycle events (core session supervision).
	SessionDown  // a peering session was declared dead (hold timer expired or peer crashed)
	SessionRetry // a reconnect attempt failed; backoff grows
	SessionUp    // a peering session (re-)established and resynced

	// MASCRestored marks a MASC node whose claim state was restored after
	// a restart (holdings and pending claims survived).
	MASCRestored

	// Fast-liveness detector events (internal/liveness).
	LivenessDetect // the liveness monitor declared a peering dead
	LivenessDemand // a stable session quiesced into demand mode
	LivenessResume // a missed probe pulled a session out of demand mode

	// BGMPFailover marks a (*,G) parent switched to its precomputed backup
	// target on peer death, without re-querying the G-RIB.
	BGMPFailover

	kindCount // sentinel; keep last
)

var kindNames = [kindCount]string{
	MASCClaim:      "masc.claim",
	MASCCollision:  "masc.collision",
	MASCWon:        "masc.won",
	MASCExpired:    "masc.expired",
	MASCRenewed:    "masc.renewed",
	MASCReleased:   "masc.released",
	BGPAnnounce:    "bgp.announce",
	BGPWithdraw:    "bgp.withdraw",
	BGPBestChange:  "bgp.best_change",
	BGMPJoin:       "bgmp.join",
	BGMPPrune:      "bgmp.prune",
	BGMPRepair:     "bgmp.repair",
	DataForwarded:  "data.forwarded",
	DataEncap:      "data.encap",
	DataDelivered:  "data.delivered",
	TransportSent:  "transport.sent",
	TransportRecv:  "transport.recv",
	MAASLease:      "maas.lease",
	FaultDrop:      "fault.drop",
	FaultDup:       "fault.dup",
	FaultReorder:   "fault.reorder",
	FaultDelay:     "fault.delay",
	FaultPartition: "fault.partition",
	FaultHeal:      "fault.heal",
	FaultCrash:     "fault.crash",
	FaultRestart:   "fault.restart",
	SessionDown:    "session.down",
	SessionRetry:   "session.retry",
	SessionUp:      "session.up",
	MASCRestored:   "masc.restored",
	LivenessDetect: "liveness.detect",
	LivenessDemand: "liveness.demand",
	LivenessResume: "liveness.resume",
	BGMPFailover:   "bgmp.failover",
}

// String returns the event kind's counter name, e.g. "masc.claim".
func (k Kind) String() string { return nameOf(kindNames[:], "kind", uint8(k)) }

// valid reports whether k is a declared kind (KindInvalid is not).
func (k Kind) valid() bool { return k != KindInvalid && k < kindCount }

// nameOf looks an enum value up in its name table; a value the table does
// not name renders as "what(N)". TestNameTablesExhaustive keeps the three
// tables (kinds, spans, histograms) free of such gaps.
func nameOf(table []string, what string, i uint8) string {
	if int(i) < len(table) && table[i] != "" {
		return table[i]
	}
	return fmt.Sprintf("%s(%d)", what, i)
}

// Event is one observed protocol occurrence. Kind and the two scope fields
// are always meaningful; the rest are set per kind (zero values mean "not
// applicable"). Event is a plain value so emission never allocates.
type Event struct {
	Kind Kind

	// Domain and Router scope the event to the emitting protocol entity.
	// Router is zero for domain-level events (MASC, MAAS, deliveries).
	Domain wire.DomainID
	Router wire.RouterID

	// Peer is the counterpart router for peering-scoped events (BGP
	// announce/withdraw, BGMP join/prune to a peer, transport, data hops).
	Peer wire.RouterID

	// Table selects the routing table for BGP events.
	Table wire.Table

	// Prefix carries the address range for MASC and BGP events.
	Prefix addr.Prefix

	// Group and Source carry the multicast flow for BGMP and data events.
	Group  addr.Addr
	Source addr.Addr

	// Count is the event's magnitude for aggregated emissions (e.g. hop
	// counts); zero means 1.
	Count uint64
}

// scope returns the (domain, router) pair the event counts under.
func (e Event) scope() scope { return scope{e.Domain, e.Router} }

// String renders the event as one deterministic trace line.
func (e Event) String() string {
	s := e.Kind.String() + e.scope().String()
	if e.Peer != 0 {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.Prefix.Valid() && e.Prefix.Len > 0 {
		s += fmt.Sprintf(" prefix=%v", e.Prefix)
	}
	if e.Group != 0 {
		s += fmt.Sprintf(" group=%v", e.Group)
	}
	if e.Source != 0 {
		s += fmt.Sprintf(" source=%v", e.Source)
	}
	if e.Count > 1 {
		s += fmt.Sprintf(" n=%d", e.Count)
	}
	return s
}
