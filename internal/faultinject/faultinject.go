// Package faultinject is the deterministic fault plane for the transport
// layer: per-link message drop/duplicate/reorder/delay, link partitions
// with scheduled heal, and peer crash/restart.
//
// The paper's stability requirement (§3) and BGMP's tree-repair machinery
// (§5.4) only matter when links actually flap and peers actually crash.
// The plane sits between a sender and its delivery function: every message
// crossing an instrumented link is offered to Deliver, which applies the
// link's configured faults before (or instead of) invoking the delivery.
//
// Determinism: all randomness derives from the configured *rand.Rand and
// all time from the configured simclock.Clock. Each directed link gets its
// own rand stream, seeded from the master seed and the link's endpoints,
// so the nth message on a link always sees the same draws no matter how
// traffic on other links interleaves with it. Driven from a synchronous
// network over a simulated clock, the same seed reproduces the same faults
// byte-for-byte — the property the chaossim experiment and the determinism
// tests assert.
//
// Layering: faultinject sits beside transport — it imports only simclock,
// wire, obs, and the standard library.
package faultinject

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"

	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// Class partitions traffic so faults can target a subset of it: control
// messages ride the (notionally TCP) peering and usually fail as a session,
// while data and keepalives see per-message loss.
type Class uint8

const (
	// Control is BGP/BGMP/MASC protocol traffic.
	Control Class = iota
	// Data is multicast data-plane traffic.
	Data
	// Keepalive is session-liveness traffic (core's session supervision).
	Keepalive
	// Liveness is BFD-style fast-liveness probe traffic (internal/liveness).
	// It is classed apart from keepalives so experiments can fail the two
	// detectors independently.
	Liveness
)

// ClassMask selects which classes a link's faults apply to.
type ClassMask uint8

const (
	// MaskControl selects protocol control messages.
	MaskControl ClassMask = 1 << iota
	// MaskData selects data-plane messages.
	MaskData
	// MaskKeepalive selects session keepalives.
	MaskKeepalive
	// MaskLiveness selects fast-liveness probes.
	MaskLiveness
	// MaskAll selects every class. A zero ClassMask in LinkFaults is
	// treated as MaskAll.
	MaskAll = MaskControl | MaskData | MaskKeepalive | MaskLiveness
)

func (m ClassMask) has(c Class) bool {
	if m == 0 {
		m = MaskAll
	}
	switch c {
	case Data:
		return m&MaskData != 0
	case Keepalive:
		return m&MaskKeepalive != 0
	case Liveness:
		return m&MaskLiveness != 0
	default:
		return m&MaskControl != 0
	}
}

// LinkFaults is the fault profile of one (bidirectional) link.
type LinkFaults struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Reorder is the probability a message is held back and delivered
	// after the link's next message (a pairwise swap).
	Reorder float64
	// Delay, when positive, defers every delivery by this duration through
	// the plane's clock.
	Delay time.Duration
	// Classes selects which traffic classes the faults apply to; zero
	// means all classes.
	Classes ClassMask
}

// zero reports an all-zero profile (no faults).
func (f LinkFaults) zero() bool { return f == LinkFaults{} }

// Config parameterizes a Plane.
type Config struct {
	// Clock schedules delays, partition heals, and peer restarts.
	// Defaults to the real clock; simulations must pass a *simclock.Sim.
	Clock simclock.Clock
	// Rand drives every probabilistic fault decision. Required: a plane
	// without an explicit seed cannot be reproduced.
	Rand *rand.Rand
	// Obs observes every applied fault (fault.drop, fault.dup, …),
	// partitions/heals, and peer crash/restart. Nil disables observation.
	Obs *obs.Observer
}

// ErrNoRand is returned by New when Config.Rand is nil.
var ErrNoRand = errors.New("faultinject: Config.Rand is required (explicit seeds only)")

// Stats counts the faults a plane has applied.
type Stats struct {
	Delivered  uint64 // messages delivered unharmed (possibly delayed)
	Dropped    uint64 // messages discarded (probability or partition)
	Duplicated uint64 // messages delivered twice
	Reordered  uint64 // messages swapped with their successor
	Delayed    uint64 // messages deferred through the clock
}

// linkKey canonicalizes an unordered router pair.
type linkKey struct{ a, b wire.RouterID }

func keyOf(a, b wire.RouterID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Plane is a fault plane. Safe for concurrent use; deterministic when
// driven from a single goroutine (synchronous networks).
type Plane struct {
	cfg Config

	mu       sync.Mutex
	seedBase int64                  // guarded by mu
	def      LinkFaults             // links without an override; guarded by mu
	links    map[linkKey]LinkFaults // guarded by mu
	// linksDir holds one-direction overrides (SetLinkDirected); they take
	// precedence over the bidirectional profile for their direction only,
	// so asymmetric failures (A hears B, B never hears A) are expressible.
	// guarded by mu
	linksDir    map[directedKey]LinkFaults
	partitioned map[linkKey]bool       // guarded by mu
	crashed     map[wire.RouterID]bool // guarded by mu
	// rngs holds one rand stream per directed link, lazily seeded from
	// seedBase and the endpoints: per-link fault sequences are then
	// independent of how traffic on other links interleaves. guarded by mu
	rngs map[directedKey]*rand.Rand
	// held buffers one reordered message per directed link. guarded by mu
	held  map[directedKey]func()
	stats Stats // guarded by mu

	onCrash, onRestart func(wire.RouterID)
}

type directedKey struct{ from, to wire.RouterID }

// New returns a Plane, or ErrNoRand when no Rand is configured.
func New(cfg Config) (*Plane, error) {
	if cfg.Rand == nil {
		return nil, ErrNoRand
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	return &Plane{
		cfg:         cfg,
		seedBase:    cfg.Rand.Int63(),
		links:       map[linkKey]LinkFaults{},
		linksDir:    map[directedKey]LinkFaults{},
		partitioned: map[linkKey]bool{},
		crashed:     map[wire.RouterID]bool{},
		rngs:        map[directedKey]*rand.Rand{},
		held:        map[directedKey]func(){},
	}, nil
}

// rng returns the directed link's rand stream, creating it on first use
// from the plane's seed and the endpoints. Caller holds p.mu.
func (p *Plane) rngLocked(k directedKey) *rand.Rand {
	r, ok := p.rngs[k]
	if !ok {
		r = rand.New(rand.NewSource(p.seedBase ^ (int64(k.from)<<32 | int64(k.to))))
		p.rngs[k] = r
	}
	return r
}

// SetDefault replaces the profile applied to links without an override.
func (p *Plane) SetDefault(f LinkFaults) {
	p.mu.Lock()
	p.def = f
	p.mu.Unlock()
}

// SetLink sets the fault profile of the a–b link (both directions).
func (p *Plane) SetLink(a, b wire.RouterID, f LinkFaults) {
	p.mu.Lock()
	p.links[keyOf(a, b)] = f
	p.mu.Unlock()
}

// ClearLink removes the a–b override, restoring the default profile.
func (p *Plane) ClearLink(a, b wire.RouterID) {
	p.mu.Lock()
	delete(p.links, keyOf(a, b))
	p.mu.Unlock()
}

// SetLinkDirected sets the fault profile of the from→to direction only;
// the reverse direction keeps its bidirectional (or default) profile.
func (p *Plane) SetLinkDirected(from, to wire.RouterID, f LinkFaults) {
	p.mu.Lock()
	p.linksDir[directedKey{from, to}] = f
	p.mu.Unlock()
}

// ClearLinkDirected removes the from→to directed override.
func (p *Plane) ClearLinkDirected(from, to wire.RouterID) {
	p.mu.Lock()
	delete(p.linksDir, directedKey{from, to})
	p.mu.Unlock()
}

// Partition severs the a–b link: every message in either direction is
// dropped until Heal.
func (p *Plane) Partition(a, b wire.RouterID) {
	p.mu.Lock()
	p.partitioned[keyOf(a, b)] = true
	p.mu.Unlock()
	p.emit(obs.Event{Kind: obs.FaultPartition, Router: a, Peer: b})
}

// Heal restores the a–b link.
func (p *Plane) Heal(a, b wire.RouterID) {
	p.mu.Lock()
	healed := p.partitioned[keyOf(a, b)]
	delete(p.partitioned, keyOf(a, b))
	p.mu.Unlock()
	if healed {
		p.emit(obs.Event{Kind: obs.FaultHeal, Router: a, Peer: b})
	}
}

// PartitionFor partitions the a–b link and schedules its heal after d.
func (p *Plane) PartitionFor(a, b wire.RouterID, d time.Duration) {
	p.Partition(a, b)
	p.cfg.Clock.AfterFunc(d, func() { p.Heal(a, b) })
}

// Partitioned reports whether the a–b link is currently partitioned.
func (p *Plane) Partitioned(a, b wire.RouterID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitioned[keyOf(a, b)]
}

// SetPeerHooks registers callbacks invoked (without plane locks held) when
// a peer crashes or restarts. The network assembly uses them to tear down
// and re-establish the peer's sessions.
func (p *Plane) SetPeerHooks(onCrash, onRestart func(wire.RouterID)) {
	p.mu.Lock()
	p.onCrash, p.onRestart = onCrash, onRestart
	p.mu.Unlock()
}

// CrashPeer marks router r crashed: every message from or to it is dropped
// and the crash hook runs (the router loses its volatile protocol state).
// Crashing a crashed peer is a no-op.
func (p *Plane) CrashPeer(r wire.RouterID) {
	p.mu.Lock()
	if p.crashed[r] {
		p.mu.Unlock()
		return
	}
	p.crashed[r] = true
	hook := p.onCrash
	p.mu.Unlock()
	p.emit(obs.Event{Kind: obs.FaultCrash, Router: r})
	if hook != nil {
		hook(r)
	}
}

// RestartPeer clears r's crashed state and runs the restart hook (sessions
// may re-establish). Restarting a live peer is a no-op.
func (p *Plane) RestartPeer(r wire.RouterID) {
	p.mu.Lock()
	if !p.crashed[r] {
		p.mu.Unlock()
		return
	}
	delete(p.crashed, r)
	hook := p.onRestart
	p.mu.Unlock()
	p.emit(obs.Event{Kind: obs.FaultRestart, Router: r})
	if hook != nil {
		hook(r)
	}
}

// CrashPeerFor crashes r and schedules its restart after d.
func (p *Plane) CrashPeerFor(r wire.RouterID, d time.Duration) {
	p.CrashPeer(r)
	p.cfg.Clock.AfterFunc(d, func() { p.RestartPeer(r) })
}

// Crashed reports whether r is currently crashed.
func (p *Plane) Crashed(r wire.RouterID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed[r]
}

// Stats returns a copy of the fault counters.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Deliver offers one message on the from→to link to the fault plane and
// reports whether it was (or will be) delivered at least once. The
// deliver callback runs zero, one, or two times — synchronously, or later
// through the clock when the link delays or reorders. Deliver never holds
// the plane's lock while running the callback, so deliveries may cascade
// back into the plane.
func (p *Plane) Deliver(from, to wire.RouterID, class Class, deliver func()) bool {
	k := keyOf(from, to)
	p.mu.Lock()
	if p.crashed[from] || p.crashed[to] || p.partitioned[k] {
		p.stats.Dropped++
		p.mu.Unlock()
		p.emit(obs.Event{Kind: obs.FaultDrop, Router: from, Peer: to})
		return false
	}
	f, ok := p.linksDir[directedKey{from, to}]
	if !ok {
		if f, ok = p.links[k]; !ok {
			f = p.def
		}
	}
	if f.zero() || !f.Classes.has(class) {
		p.stats.Delivered++
		p.mu.Unlock()
		deliver()
		return true
	}
	// One rand draw per decision, in a fixed order, from the directed
	// link's own stream: the nth message on a link sees the same fate on
	// every same-seed run, regardless of other links' traffic.
	dk := directedKey{from, to}
	rng := p.rngLocked(dk)
	if f.Drop > 0 && rng.Float64() < f.Drop {
		p.stats.Dropped++
		p.mu.Unlock()
		p.emit(obs.Event{Kind: obs.FaultDrop, Router: from, Peer: to})
		return false
	}
	dup := f.Dup > 0 && rng.Float64() < f.Dup
	reorder := f.Reorder > 0 && rng.Float64() < f.Reorder
	if dup {
		p.stats.Duplicated++
	}

	// A message selected for reorder is parked; the link's next message
	// releases it afterwards (a pairwise swap). A second reorder pick
	// while one is parked releases the parked message instead — the swap.
	final := deliver
	if dup {
		final = func() { deliver(); deliver() }
	}
	var run func()
	switch {
	case reorder && p.held[dk] == nil:
		p.stats.Reordered++
		p.held[dk] = final
		p.mu.Unlock()
		p.emit(obs.Event{Kind: obs.FaultReorder, Router: from, Peer: to})
		if dup {
			p.emit(obs.Event{Kind: obs.FaultDup, Router: from, Peer: to})
		}
		return true
	case p.held[dk] != nil:
		parked := p.held[dk]
		delete(p.held, dk)
		here := final
		run = func() { here(); parked() }
	default:
		run = final
	}
	p.stats.Delivered++
	delay := f.Delay
	if delay > 0 {
		p.stats.Delayed++
	}
	p.mu.Unlock()
	if dup {
		p.emit(obs.Event{Kind: obs.FaultDup, Router: from, Peer: to})
	}
	if delay > 0 {
		p.emit(obs.Event{Kind: obs.FaultDelay, Router: from, Peer: to})
		p.cfg.Clock.AfterFunc(delay, run)
		return true
	}
	run()
	return true
}

// FlushHeld releases any parked (reordered) messages on every link — call
// at the end of a traffic burst so swapped messages are not stranded.
func (p *Plane) FlushHeld() {
	p.mu.Lock()
	parked := make([]func(), 0, len(p.held))
	keys := make([]directedKey, 0, len(p.held))
	for k := range p.held {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, less) // deterministic release order
	for _, k := range keys {
		parked = append(parked, p.held[k])
	}
	p.held = map[directedKey]func(){}
	p.mu.Unlock()
	for _, fn := range parked {
		fn()
	}
}

func less(a, b directedKey) int {
	return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
}

func (p *Plane) emit(e obs.Event) { p.cfg.Obs.Emit(e) }
