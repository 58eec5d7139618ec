// Package dataplane abstracts the multicast forwarding plane of a border
// router behind the Backend interface, so the repro can compare the
// paper's BGMP shared trees against the data planes the later literature
// proposes for the same problem:
//
//   - "shared-tree" (default): BGMP bidirectional shared trees — per-group
//     (*,G)/(S,G) state at every on-tree router (internal/bgmp).
//   - "bier": BIER-style bitstring forwarding — the group's root domain
//     stamps a per-packet domain bitmask computed from overlay membership;
//     transit domains forward per set bit using only unicast routes and
//     keep zero per-group forwarding entries.
//   - "map-encap": map-and-encap — senders' domains tunnel packets to the
//     MASC-derived root domain (the "map" is the G-RIB origin), which
//     decapsulates and re-tunnels one copy per member domain.
//
// All three backends share the control-plane substrate (BGP-lite RIBs,
// MASC allocation) and the MIGP interior contract; they differ only in
// where group state lives and what per-packet headers they spend. The
// BIER and map-and-encap backends move membership out of routers into a
// per-domain overlay Store fed by MemberReport messages, mirroring BIER's
// argument that multicast state belongs in the routing underlay/overlay
// rather than in per-hop tree entries.
package dataplane

import (
	"slices"
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// Backend names, the values accepted by core's Config.DataPlane and the
// cmds' -backend flags.
const (
	SharedTreeName = "shared-tree"
	BIERName       = "bier"
	MapEncapName   = "map-encap"
)

// Names returns the valid backend names in presentation order.
func Names() []string { return []string{SharedTreeName, BIERName, MapEncapName} }

// ValidName reports whether name identifies a backend.
func ValidName(name string) bool { return slices.Contains(Names(), name) }

// Per-packet header cost model, used by the Stats counters and the
// model-level comparison in internal/experiments.
const (
	// EncapHeaderBytes is the outer unicast header spent per inter-domain
	// hop of a map-and-encap tunnel (an IP-in-IP outer header plus the
	// tunnel endpoint fields our wire format carries).
	EncapHeaderBytes = 28
	// BIERFixedHeaderBytes is the bitstring-independent part of a BIER
	// header (BIFT id, entropy, protocol fields).
	BIERFixedHeaderBytes = 12
)

// BIERHeaderBytes returns the per-hop header cost of a bitstring of the
// given word count.
func BIERHeaderBytes(words int) int { return BIERFixedHeaderBytes + 8*words }

// Backend is the forwarding plane of one border router. Exactly one
// backend runs per router; core selects it from Config.DataPlane.
//
// Deliver is the single data ingress: src is bgmp.MIGPTarget for
// interior-origin packets, bgmp.MIGPToward(r) for packets relayed from
// sibling border r, and bgmp.PeerTarget(r) for packets from external peer
// r. Implementations must be safe for concurrent use and deterministic:
// fan-out order may not depend on map iteration.
type Backend interface {
	// Name returns the backend's registered name.
	Name() string
	// Deliver forwards one multicast packet that arrived from src. d is valid
	// until it returns (the next packet is decoded over it): copy what is kept.
	Deliver(src bgmp.Target, d *wire.Data)
	// HandleControl processes a backend-specific control message (today:
	// *wire.MemberReport). Messages of other types are ignored.
	HandleControl(src bgmp.Target, msg wire.Message)
	// LocalJoin reports that the domain interior gained its first member
	// of g and this router is the domain's best exit for g.
	LocalJoin(g addr.Addr)
	// LocalLeave undoes LocalJoin when the last interior member left.
	LocalLeave(g addr.Addr)
	// HasForwardingState reports whether this router holds per-group
	// forwarding state for g (the MIGP uses it to route interior packets
	// to interested borders; the comparison suites use it to count state).
	HasForwardingState(g addr.Addr) bool
	// RouteChanged reacts to a best-route change for prefix p (any RIB).
	// ctx is the change's causal trace context (zero when untraced);
	// backends that re-parent trees propagate it onto the repair traffic.
	RouteChanged(p addr.Prefix, ctx wire.TraceContext)
	// Reset models a forwarding-process crash: volatile state is dropped.
	Reset()
	// Stats snapshots the backend's comparison counters.
	Stats() Stats
}

// Stats are the per-router comparison counters every backend reports.
type Stats struct {
	// GroupEntries counts per-group forwarding entries held by this
	// router ((*,G) + (S,G) + aggregated prefixes for shared trees; zero
	// by design for the stateless backends).
	GroupEntries int
	// OverlayEntries counts (group, member-domain) membership records in
	// the domain's overlay store. Only root-domain borders hold any, and
	// the store is shared domain-wide (each border of the root domain
	// reports the same value).
	OverlayEntries int
	// PeerSends counts copies this backend sent to external peers.
	PeerSends uint64
	// Relays counts border-to-border relays through the domain interior.
	Relays uint64
	// Encaps counts tunnel or interior-RPF encapsulations originated.
	Encaps uint64
	// HeaderBytes sums the extra per-packet header bytes (tunnel outer
	// headers, BIER bitstrings) this backend put on inter-domain hops.
	HeaderBytes uint64
}

// Config parameterizes the stateless backends (BIER, map-and-encap). The
// shared-tree backend wraps an existing *bgmp.Component instead.
type Config struct {
	Router wire.RouterID
	Domain wire.DomainID
	// LookupGroup resolves a group address in the G-RIB (root-domain map).
	LookupGroup func(g addr.Addr) (bgp.Entry, bool)
	// LookupUnicast resolves a unicast address (tunnel endpoints, domain
	// anchor addresses).
	LookupUnicast func(a addr.Addr) (bgp.Entry, bool)
	// UnicastGeneration counts the changes to what LookupUnicast answers
	// from (bgp.Speaker.Generation): BIER keeps a next hop it looked up
	// while the count stands, and with nil looks every bit up every time.
	UnicastGeneration func() uint64
	// Internal reports whether a router ID is a border of this domain.
	Internal func(r wire.RouterID) bool
	// SendPeer transmits a message to an external peer.
	SendPeer func(to wire.RouterID, msg wire.Message)
	// MIGP is the interior component; required.
	MIGP bgmp.MIGP
	// DomainAddr returns the anchor (tunnel endpoint) address of a
	// domain — any address the unicast RIB routes to that domain.
	DomainAddr func(d wire.DomainID) (addr.Addr, bool)
	// SourceDomain maps a source address to its owning domain, so root
	// replication can skip the domain that already saw the packet
	// natively.
	SourceDomain func(s addr.Addr) (wire.DomainID, bool)
	// Store is the domain's shared overlay membership store; required.
	Store *Store
	// Obs observes data-plane hops; nil disables observation.
	Obs *obs.Observer
}

// Store is one domain's overlay membership table: for groups rooted at
// this domain, the set of member domains, refcounted per (group, domain).
// It models membership carried by the routing overlay rather than by
// per-router tree state, so — like BIER's BFIR state — it survives border
// router crashes (Backend.Reset does not clear it). All borders of a
// domain share one Store.
type Store struct {
	mu      sync.Mutex
	members map[addr.Addr]*memberSet // guarded by mu
}

// memberSet is one group's membership: a refcount per member domain, and
// the domains ascending as Members last listed them — dropped, never edited,
// by a change, so a list a reader holds stays as it was.
type memberSet struct {
	refs map[wire.DomainID]int
	list []wire.DomainID
}

// NewStore returns an empty membership store.
func NewStore() *Store {
	return &Store{members: map[addr.Addr]*memberSet{}}
}

// Add records one membership assertion for (g, d).
func (s *Store) Add(g addr.Addr, d wire.DomainID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.members[g]
	if m == nil {
		m = &memberSet{refs: make(map[wire.DomainID]int, 2)}
		s.members[g] = m
	}
	m.refs[d]++
	m.list = nil
}

// Remove retracts one membership assertion for (g, d).
func (s *Store) Remove(g addr.Addr, d wire.DomainID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.members[g]
	if m == nil {
		return
	}
	m.list = nil
	m.refs[d]--
	if m.refs[d] <= 0 {
		delete(m.refs, d)
	}
	if len(m.refs) == 0 {
		delete(s.members, g)
	}
}

// Members returns g's member domains in ascending order: the store's own
// list, read-only, built by the first call after a change and handed to
// every call until the next.
func (s *Store) Members(g addr.Addr) []wire.DomainID {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.members[g]
	if m == nil {
		return nil
	}
	if m.list == nil {
		m.list = make([]wire.DomainID, 0, len(m.refs))
		for d := range m.refs {
			m.list = append(m.list, d)
		}
		slices.Sort(m.list)
	}
	return m.list
}

// Entries counts (group, member-domain) records across all groups.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.members {
		n += len(m.refs)
	}
	return n
}
