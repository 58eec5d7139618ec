// Package core assembles the complete MASC/BGMP system: multi-domain
// networks of border routers running BGP-lite (with G-RIB and M-RIB
// views), the MASC claim-collide protocol, MAAS address servers, BGMP
// components, and an interior-protocol fabric per domain.
//
// It is the integration layer the examples, the bgmpd daemon, and the
// end-to-end tests build on: domains are added, linked, and then exercised
// through the small host-facing API (Join/Leave/Send/NewGroup).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/liveness"
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
	// ClaimLifetime is the lifetime for MASC claims; defaults to 30 days.
	ClaimLifetime time.Duration
	// SourceBranches enables §5.3 source-specific branches on every
	// border router.
	SourceBranches bool
	// AutoRenewClaims keeps domains' MASC holdings alive by renewing
	// them before expiry (§4.3.1). Off, ranges lapse at their lifetime
	// and the covering routes age out.
	AutoRenewClaims bool
	// Synchronous delivers inter-router messages by direct call (with an
	// encode/decode round trip), making runs deterministic. Unset, every
	// peering is a real loopback TCP connection with background transport
	// goroutines — the deployment shape of cmd/bgmpd.
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
	// routes, BGMP repairs, and reconnects are retried with exponential
	// backoff. Zero disables supervision (links only fail via Unlink).
	HoldTime time.Duration
	// ReconnectBackoff is the first retry delay after a session drops;
	// it doubles per failed attempt up to 8×. Defaults to HoldTime/2.
	ReconnectBackoff time.Duration
	// Liveness, when set, additionally runs a BFD-style fast detector
	// (internal/liveness) on every supervised session: probe intervals
	// ramp from HoldTime/3 down to Params.Floor, detection fires after
	// Params.Multiplier missed intervals, and stable sessions quiesce
	// into demand mode. Hold timers keep running as the fallback
	// detector. Requires HoldTime (session supervision).
	Liveness *liveness.Params
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
	if c.ClaimLifetime < 0 {
		return &ConfigError{Field: "ClaimLifetime", Reason: "must not be negative"}
	}
	if c.HoldTime < 0 {
		return &ConfigError{Field: "HoldTime", Reason: "must not be negative"}
	}
	if c.ReconnectBackoff < 0 {
		return &ConfigError{Field: "ReconnectBackoff", Reason: "must not be negative"}
	}
	if c.ReconnectBackoff > 0 && c.HoldTime == 0 {
		return &ConfigError{Field: "ReconnectBackoff", Reason: "needs HoldTime to enable session supervision"}
	}
	if c.Liveness != nil {
		if c.HoldTime == 0 {
			return &ConfigError{Field: "Liveness", Reason: "needs HoldTime to enable session supervision"}
		}
		if c.Liveness.Floor < 0 || c.Liveness.Multiplier < 0 ||
			c.Liveness.DemandAfter < 0 || c.Liveness.DemandInterval < 0 {
			return &ConfigError{Field: "Liveness", Reason: "parameters must not be negative"}
		}
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

	frameMu sync.Mutex
	// frame is the encode buffer every function-call hop reuses.
	// guarded by frameMu
	frame []byte
	// packets are the free lists of decoded data packets, [1] of those with
	// a bitstring (so that decoding never drops its array): plain stacks, not
	// a sync.Pool, which a collection empties — what a send allocates must
	// not depend on the collector (DESIGN.md §17). guarded by frameMu
	packets [2][]*wire.Data
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
	if cfg.ClaimLifetime == 0 {
		cfg.ClaimLifetime = 30 * 24 * time.Hour
	}
	if cfg.HoldTime > 0 && cfg.ReconnectBackoff == 0 {
		cfg.ReconnectBackoff = cfg.HoldTime / 2
	}
	// An attached tracer times spans on the network's clock (obs sits
	// below simclock in the layering, so the clock is injected here).
	cfg.Observer.Tracer().SetNow(cfg.Clock.Now)
	n := &Network{
		cfg:     cfg,
		tracker: &transport.Tracker{},
		domains: map[wire.DomainID]*Domain{},
		routers: map[wire.RouterID]*Router{},
	}
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
	d := n.Domain(id)
	if d == nil || !d.hostPrefix.Valid() || d.hostPrefix.Len == 0 {
		return 0, false
	}
	return d.hostPrefix.Base, true
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
	ra.dropPeer(b, wire.TraceContext{})
	rb.dropPeer(a, wire.TraceContext{})
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
