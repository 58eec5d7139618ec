package core

import (
	"sync"
	"time"

	"mascbgmp/internal/bgp"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/liveness"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// Session supervision. When Config.HoldTime is set, every external peering
// made with Link is watched by a session object: both ends exchange
// keepalives every HoldTime/3 (routed through the fault plane as Keepalive
// class, so loss and partitions apply), and an end that hears nothing for
// HoldTime declares the session dead. A dead session is torn down exactly
// like Unlink — BGP withdraws the peer's routes, BGMP repairs or orphans
// the affected trees — but the session object stays and retries the
// connection with exponential backoff from HoldTime/2, re-running the BGP
// route exchange when it succeeds so orphaned groups rejoin through
// RouteChanged.
//
// Peer crashes injected through the fault plane are detected the same way:
// the crashed router exchanges no traffic, so its external peers' hold
// timers expire. The crash hook wipes the crashed process's forwarding
// state (dataplane.Backend.Reset) and severs its same-domain iBGP
// peerings (see onPeerCrash); everything else is relearned on reconnect.

// session supervises one supervised external peering.
type session struct {
	n    *Network
	a, b *Router
	// lv is the optional BFD-style fast detector (Config.Liveness); it
	// reports through down(), so hold timers stay the fallback.
	lv *liveness.Monitor

	// The session's own lock; never held while calling into routers or
	// the fault plane (both cascade into protocol handlers).
	mu      sync.Mutex
	up      bool // guarded by mu
	stopped bool // guarded by mu
	// gen counts session incarnations: keepalives delivered late carry
	// the generation they were sent under, so a delivery that straddles a
	// down()/retry() cycle cannot touch the new incarnation's timers.
	// guarded by mu
	gen uint64
	// heardA/heardB are the last instants a (resp. b) heard a keepalive
	// from the other end. guarded by mu
	heardA, heardB time.Time
	backoff        time.Duration  // guarded by mu
	timer          simclock.Timer // guarded by mu
}

func newSession(n *Network, a, b *Router) *session {
	s := &session{n: n, a: a, b: b}
	if n.cfg.Liveness {
		s.lv = liveness.New(liveness.Config{
			Clock:   n.cfg.Clock,
			Initial: n.cfg.HoldTime / 3,
			Domain:  a.domain.ID,
			A:       a.ID,
			B:       b.ID,
			Faults:  n.cfg.Faults,
			OnDown:  s.down,
			Obs:     n.cfg.Observer,
		})
	}
	return s
}

func (s *session) interval() time.Duration { return s.n.cfg.HoldTime / 3 }

// firstBackoff is the wait before the first reconnect attempt; each failed
// attempt doubles the wait, up to 8× this.
func (s *session) firstBackoff() time.Duration { return s.n.cfg.HoldTime / 2 }

// start arms the keepalive tick (and the fast-liveness monitor, when
// configured) on a freshly connected session.
func (s *session) start() {
	now := s.n.cfg.Clock.Now()
	s.mu.Lock()
	s.up = true
	s.gen++
	s.heardA, s.heardB = now, now
	s.backoff = s.firstBackoff()
	s.timer = s.n.cfg.Clock.AfterFunc(s.interval(), s.onTick)
	s.mu.Unlock()
	if s.lv != nil {
		s.lv.Start()
	}
}

// stop cancels all supervision (Unlink).
func (s *session) stop() {
	s.mu.Lock()
	s.stopped = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()
	if s.lv != nil {
		s.lv.Stop()
	}
}

// onTick exchanges keepalives in both directions and checks both hold
// timers. Runs in a clock callback.
func (s *session) onTick() {
	s.mu.Lock()
	if s.stopped || !s.up {
		s.mu.Unlock()
		return
	}
	gen := s.gen
	s.mu.Unlock()

	now := s.n.cfg.Clock.Now()
	s.keepalive(s.a, s.b, gen)
	s.keepalive(s.b, s.a, gen)

	s.mu.Lock()
	if s.stopped || !s.up {
		s.mu.Unlock()
		return
	}
	expired := now.Sub(s.heardA) >= s.n.cfg.HoldTime || now.Sub(s.heardB) >= s.n.cfg.HoldTime
	if !expired {
		s.timer = s.n.cfg.Clock.AfterFunc(s.interval(), s.onTick)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.down(wire.TraceContext{})
}

// keepalive sends one keepalive from -> to through the fault plane; on
// delivery the receiver's hold timer is touched. Without a plane the
// keepalive always arrives.
func (s *session) keepalive(from, to *Router, gen uint64) {
	touch := func() {
		// Credit the receiver as of delivery time, not transmit time: the
		// plane may delay the callback, and near the HoldTime boundary the
		// difference decides expiry. A delivery straddling a down()/retry()
		// cycle carries a stale generation and must not touch the new
		// incarnation's timers.
		now := s.n.cfg.Clock.Now()
		s.mu.Lock()
		if gen != s.gen {
			s.mu.Unlock()
			return
		}
		if to == s.a {
			if now.After(s.heardA) {
				s.heardA = now
			}
		} else if now.After(s.heardB) {
			s.heardB = now
		}
		s.mu.Unlock()
	}
	if p := s.n.cfg.Faults; p != nil {
		p.Deliver(from.ID, to.ID, faultinject.Keepalive, touch)
		return
	}
	touch()
}

// down declares the session dead: both sides drop the peering (routes
// withdraw, trees repair or orphan) and a reconnect is scheduled. ctx is
// the detection's trace context when the fast detector tripped; the hold
// timer path passes zero and the teardown roots its own trace.
func (s *session) down(ctx wire.TraceContext) {
	s.mu.Lock()
	if s.stopped || !s.up {
		s.mu.Unlock()
		return
	}
	s.up = false
	s.gen++ // in-flight keepalive credits die with the incarnation
	if s.timer != nil {
		s.timer.Stop()
	}
	backoff := s.backoff
	s.mu.Unlock()
	if s.lv != nil {
		s.lv.Stop()
	}

	tr := s.n.cfg.Observer.Tracer()
	ev := obs.Event{Domain: s.a.domain.ID, Router: s.a.ID, Peer: s.b.ID}
	var sp obs.Span
	if ctx.Zero() {
		sp = tr.Begin(obs.SpanSessionDown, ev)
	} else {
		sp = tr.BeginChild(ctx, obs.SpanSessionDown, ev)
	}
	s.n.emit(obs.Event{Kind: obs.SessionDown, Domain: s.a.domain.ID, Router: s.a.ID, Peer: s.b.ID})
	s.n.converge(func() {
		s.a.dropPeer(s.b.ID, sp.Context())
		s.b.dropPeer(s.a.ID, sp.Context())
	})
	sp.End()

	s.mu.Lock()
	if !s.stopped {
		s.timer = s.n.cfg.Clock.AfterFunc(backoff, s.retry)
	}
	s.mu.Unlock()
}

// retry attempts to re-establish the peering. While the link is
// partitioned or either end is crashed the attempt fails and the backoff
// doubles (capped at 8× the first); a successful attempt
// reconnects, resyncs BGP — which replays routes and lets orphaned trees
// rejoin — and resumes keepalives.
func (s *session) retry() {
	s.mu.Lock()
	if s.stopped || s.up {
		s.mu.Unlock()
		return
	}
	backoff := s.backoff
	s.mu.Unlock()

	p := s.n.cfg.Faults
	blocked := p != nil && (p.Partitioned(s.a.ID, s.b.ID) || p.Crashed(s.a.ID) || p.Crashed(s.b.ID))
	if !blocked {
		if err := s.a.connect(s.b); err != nil {
			blocked = true
		}
	}
	if blocked {
		s.n.emit(obs.Event{Kind: obs.SessionRetry, Domain: s.a.domain.ID, Router: s.a.ID, Peer: s.b.ID})
		s.mu.Lock()
		if !s.stopped {
			s.backoff = min(backoff*2, 8*s.firstBackoff())
			s.timer = s.n.cfg.Clock.AfterFunc(s.backoff, s.retry)
		}
		s.mu.Unlock()
		return
	}

	s.n.emit(obs.Event{Kind: obs.SessionUp, Domain: s.a.domain.ID, Router: s.a.ID, Peer: s.b.ID})
	s.start()
}

// emit forwards a network-level event to the observer (nil-safe).
func (n *Network) emit(e obs.Event) { n.cfg.Observer.Emit(e) }

// onPeerCrash is the fault plane's crash hook: the crashed border router's
// process state is gone, so its forwarding backend resets (overlay
// membership lives in the domain's shared Store and survives). External
// peering sessions are not torn here — those peers notice through their
// hold timers, exactly as they would a real silent crash. Same-domain iBGP
// peers, whose mesh connections are not hold-timer supervised, see the TCP
// reset immediately and withdraw the crashed router's routes — without
// this the stateless data planes would tunnel packets into the dead router
// for the whole outage.
func (n *Network) onPeerCrash(id wire.RouterID) {
	n.mu.Lock()
	r := n.routers[id]
	n.mu.Unlock()
	if r == nil {
		return
	}
	r.backend.Reset()
	n.converge(func() {
		for _, p := range r.domain.Routers() {
			if p != r {
				p.bgp.RemoveNeighbor(id, wire.TraceContext{})
			}
		}
	})
}

// onPeerRestart is the fault plane's restart hook. External sessions come
// back through their backoff-scheduled retries; the internal mesh —
// severed at crash time by onPeerCrash — reconnects eagerly, as loopback
// iBGP sessions to a rebooted process would, and resyncs both directions.
func (n *Network) onPeerRestart(id wire.RouterID) {
	n.mu.Lock()
	r := n.routers[id]
	n.mu.Unlock()
	if r == nil {
		return
	}
	n.converge(func() {
		for _, p := range r.domain.Routers() {
			if p == r {
				continue
			}
			p.bgp.AddNeighbor(bgp.Neighbor{Router: r.ID, Domain: r.domain.ID, Internal: true})
			p.bgp.Sync(r.ID)
			r.bgp.Sync(p.ID)
		}
	})
}
