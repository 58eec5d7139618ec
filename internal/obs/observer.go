package obs

import (
	"sync"
	"sync/atomic"

	"mascbgmp/internal/wire"
)

// Observer is the handle protocol components emit events through. Every
// event increments the matching counter in the observer's Metrics registry
// (scoped by the event's Domain/Router) and fans out to subscribers.
//
// A nil *Observer is a valid no-op sink: Emit returns immediately and
// Metrics() returns a nil (no-op) registry, so instrumented hot paths cost
// one branch when observability is off.
type Observer struct {
	metrics *Metrics

	// tracer is an optional attachment, loaded lock-free by Tracer().
	tracer atomic.Pointer[Tracer]

	mu      sync.Mutex
	subs    map[int]func(Event) // guarded by mu
	nextSub int                 // guarded by mu
	// nsubs mirrors len(subs) so Emit can skip the fan-out lock when
	// nobody is listening.
	nsubs atomic.Int32
}

// NewObserver returns an Observer with a fresh Metrics registry.
func NewObserver() *Observer {
	return &Observer{metrics: NewMetrics(), subs: map[int]func(Event){}}
}

// Metrics returns the observer's counter registry (nil for a nil
// observer; the nil registry ignores everything).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Emit records one event: the counter named by the event's Kind, scoped by
// its Domain and Router, grows by Event.N(), and every subscriber runs
// with the event. Safe on nil and for concurrent use.
//
// Subscribers run synchronously on the emitting goroutine. Instrumented
// components emit only outside their internal locks, so subscribers may
// inspect component state; they must not block.
func (o *Observer) Emit(e Event) {
	if o == nil || e.Kind == KindInvalid || e.Kind >= kindCount {
		return
	}
	o.metrics.Counter(e.Kind.String(), e.Domain, e.Router).Add(e.N())
	if o.nsubs.Load() == 0 {
		return
	}
	o.mu.Lock()
	fns := make([]func(Event), 0, len(o.subs))
	for _, fn := range o.subs {
		fns = append(fns, fn)
	}
	o.mu.Unlock()
	for _, fn := range fns {
		fn(e)
	}
}

// Subscribe registers fn to run on every subsequent event and returns a
// cancel function. Safe on nil (the cancel is a no-op).
func (o *Observer) Subscribe(fn func(Event)) (cancel func()) {
	if o == nil {
		return func() {}
	}
	o.mu.Lock()
	id := o.nextSub
	o.nextSub++
	o.subs[id] = fn
	o.nsubs.Store(int32(len(o.subs)))
	o.mu.Unlock()
	return func() {
		o.mu.Lock()
		delete(o.subs, id)
		o.nsubs.Store(int32(len(o.subs)))
		o.mu.Unlock()
	}
}

// Snapshot is shorthand for Metrics().Snapshot().
func (o *Observer) Snapshot() Snapshot { return o.Metrics().Snapshot() }

// SetTracer attaches t; subsequent Tracer() calls return it. Safe on nil.
func (o *Observer) SetTracer(t *Tracer) {
	if o != nil {
		o.tracer.Store(t)
	}
}

// Tracer returns the attached tracer, nil when none (a nil tracer is a
// valid no-op, so callers use the result unconditionally).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer.Load()
}

// Histogram is shorthand for Metrics().Histogram — the handle protocol
// components observe latencies through. Safe on nil (returns a nil,
// no-op histogram).
func (o *Observer) Histogram(name string, domain wire.DomainID, router wire.RouterID) *Histogram {
	return o.Metrics().Histogram(name, domain, router)
}
