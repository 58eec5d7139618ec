// Package liveness is a BFD-style fast failure detector (RFC 5880 in
// spirit) for supervised peering sessions: each monitored peering
// exchanges small liveness probes at an adaptive transmit interval that
// ramps down from the session's keepalive cadence (HoldTime/3) toward a
// 100ms floor, declares the peering dead after three consecutive missed
// intervals, and — once the session has proven stable at the floor —
// quiesces into demand mode, probing once a second until the first missed
// round re-arms fast probing.
//
// The monitor is driven entirely by the configured simclock.Clock and
// routes every probe through the fault plane as its own message class
// (faultinject.Liveness), so partitions, crashes, directed loss, and
// delay all apply to it exactly as to real traffic. It is a detector,
// not a supervisor: a detection is reported once through OnDown and the
// owning session supervisor (internal/core) tears the peering down; hold
// timers remain the fallback when no monitor is configured.
//
// Layering: liveness sits beside bgmp — it imports wire, obs, simclock,
// faultinject, and the standard library only.
package liveness

import (
	"sync"
	"time"

	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// The detector's timing. Every session runs the same detector.
const (
	// floor is the minimum transmit interval the adaptive ramp converges
	// to.
	floor = 100 * time.Millisecond
	// multiplier is the number of consecutive missed intervals in either
	// direction before the peering is declared dead.
	multiplier = 3
	// demandAfter is the number of consecutive clean rounds at the floor
	// before the monitor quiesces into demand mode: low enough that a
	// crash in the chaos sweep meets a quiesced detector.
	demandAfter = 10
	// demandInterval is the slow poll cadence in demand mode.
	demandInterval = 10 * floor
)

// Config parameterizes a Monitor. One Monitor supervises one peering and
// probes both directions, mirroring the session supervisor it feeds.
type Config struct {
	// Clock drives the probe timers. Required.
	Clock simclock.Clock
	// Initial is the starting transmit interval, conventionally the
	// session's keepalive cadence (HoldTime/3); the ramp negotiates it
	// down to the floor. Values below the floor are clamped up.
	Initial time.Duration
	// Domain and A, B scope the monitored peering for events: A and B are
	// the two session endpoints, probed in both directions.
	Domain wire.DomainID
	A, B   wire.RouterID
	// Faults, when non-nil, carries every probe as its own message class
	// (faultinject.Liveness). Nil delivers probes synchronously unharmed.
	Faults *faultinject.Plane
	// OnDown fires once per Start when detection trips, with no monitor
	// lock held. The monitor disarms itself first, so OnDown may call
	// back into Stop or Start freely. ctx is the detection's trace
	// context (the root of the repair chain); zero when tracing is off.
	OnDown func(ctx wire.TraceContext)
	// Obs observes liveness.detect / liveness.demand / liveness.resume.
	Obs *obs.Observer
}

// Monitor is one peering's fast-liveness detector. Safe for concurrent
// use; deterministic when driven from a simulated clock.
type Monitor struct {
	cfg Config

	mu      sync.Mutex
	running bool // guarded by mu
	// gen is the monitoring incarnation; probes stamped with an earlier
	// generation (delayed past a Stop/Start cycle) are discarded on
	// receipt rather than crediting the new incarnation. guarded by mu
	gen      uint32
	interval time.Duration // guarded by mu
	demand   bool          // guarded by mu
	stable   int           // consecutive clean rounds at the floor; guarded by mu
	rounds   uint64        // guarded by mu
	// gotA/gotB record a probe received this round by A (from B) and by
	// B (from A); missA/missB count consecutive missed rounds per
	// direction. guarded by mu
	gotA, gotB bool
	// guarded by mu
	missA, missB int
	timer        simclock.Timer // guarded by mu
}

// New returns a Monitor for the configured peering. Start arms it.
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg}
}

// Start (re-)arms the monitor for a fresh session incarnation: the ramp
// restarts from Config.Initial and a new probe generation begins.
func (m *Monitor) Start() {
	m.mu.Lock()
	m.gen++
	m.running = true
	m.interval = max(m.cfg.Initial, floor)
	m.demand = false
	m.stable = 0
	m.rounds = 0
	m.gotA, m.gotB = false, false
	m.missA, m.missB = 0, 0
	if m.timer != nil {
		m.timer.Stop()
	}
	m.timer = m.cfg.Clock.AfterFunc(m.interval, m.onTick)
	m.mu.Unlock()
}

// Stop disarms the monitor. Idempotent; a later Start re-arms it.
func (m *Monitor) Stop() {
	m.mu.Lock()
	m.running = false
	if m.timer != nil {
		m.timer.Stop()
	}
	m.mu.Unlock()
}

// State is a snapshot of the monitor's detector state, for tests and
// introspection.
type State struct {
	Running  bool
	Interval time.Duration
	Demand   bool
	Stable   int
}

// State returns a snapshot of the detector state.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return State{Running: m.running, Interval: m.interval, Demand: m.demand, Stable: m.stable}
}

// onTick closes the previous probe round and opens the next: evaluate
// which directions heard a probe, detect or adapt, then probe again.
func (m *Monitor) onTick() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	var detect, resumed, quiesced bool
	if m.rounds > 0 {
		missed := false
		if m.gotA {
			m.missA = 0
		} else {
			m.missA++
			missed = true
		}
		if m.gotB {
			m.missB = 0
		} else {
			m.missB++
			missed = true
		}
		detect = m.missA >= multiplier || m.missB >= multiplier
		switch {
		case detect:
			// Disarm before reporting: the supervisor restarts us on
			// reconnect with a fresh generation.
			m.running = false
		case missed && m.demand:
			// First miss ends the quiesce: return to fast probing so the
			// multiplier counts floor intervals, not poll intervals.
			m.demand = false
			m.stable = 0
			m.interval = floor
			resumed = true
		case !missed && !m.demand:
			// Clean round: ramp the interval down toward the floor, and
			// after enough stable floor rounds, quiesce.
			if m.interval > floor {
				m.interval = max(m.interval/2, floor)
			} else {
				m.stable++
				if m.stable >= demandAfter {
					m.demand = true
					quiesced = true
				}
			}
		}
	}
	m.gotA, m.gotB = false, false
	m.rounds++
	gen, interval, demand := m.gen, m.interval, m.demand
	if !detect {
		next := interval
		if demand {
			next = demandInterval
		}
		m.timer = m.cfg.Clock.AfterFunc(next, m.onTick)
	}
	m.mu.Unlock()

	switch {
	case detect:
		// The detection roots the causal chain every repair action hangs
		// under: session teardown, BGP withdrawal, tree failover all parent
		// (transitively) under this span.
		sp := m.cfg.Obs.Tracer().Begin(obs.SpanLivenessDetect,
			obs.Event{Domain: m.cfg.Domain, Router: m.cfg.A, Peer: m.cfg.B})
		m.emit(obs.LivenessDetect)
		if m.cfg.OnDown != nil {
			m.cfg.OnDown(sp.Context())
		}
		sp.End()
		return
	case quiesced:
		m.emit(obs.LivenessDemand)
	case resumed:
		m.emit(obs.LivenessResume)
	}
	m.probe(m.cfg.A, m.cfg.B, gen, interval, demand)
	m.probe(m.cfg.B, m.cfg.A, gen, interval, demand)
}

// probe sends one liveness control packet from→to through the fault
// plane, round-tripping it through the wire codec like real traffic.
func (m *Monitor) probe(from, to wire.RouterID, gen uint32, interval time.Duration, demand bool) {
	frame := wire.Encode(&wire.LivenessCtl{
		Generation: gen,
		IntervalUS: uint32(interval / time.Microsecond),
		Multiplier: multiplier,
		Demand:     demand,
	})
	deliver := func() {
		msg, err := wire.Decode(frame)
		if err != nil {
			return
		}
		if ctl, ok := msg.(*wire.LivenessCtl); ok {
			m.rx(to, ctl)
		}
	}
	if p := m.cfg.Faults; p != nil {
		p.Deliver(from, to, faultinject.Liveness, deliver)
		return
	}
	deliver()
}

// rx credits the receiving end's current round. Probes from an earlier
// monitoring incarnation (delayed past a Stop/Start cycle) are discarded.
func (m *Monitor) rx(at wire.RouterID, ctl *wire.LivenessCtl) {
	m.mu.Lock()
	if m.running && ctl.Generation == m.gen {
		if at == m.cfg.A {
			m.gotA = true
		} else if at == m.cfg.B {
			m.gotB = true
		}
	}
	m.mu.Unlock()
}

func (m *Monitor) emit(k obs.Kind) {
	m.cfg.Obs.Emit(obs.Event{Kind: k, Domain: m.cfg.Domain, Router: m.cfg.A, Peer: m.cfg.B})
}
