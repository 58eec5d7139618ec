package obs

import (
	"sync"
	"sync/atomic"
)

// Observer is the handle protocol components emit events through, and the
// registry of what they emitted: scoped counters keyed by Kind and scoped
// histograms keyed by Hist. Every event increments its Kind's counter in
// the event's (Domain, Router) scope and fans out to subscribers.
// Registration takes a mutex; increments on retrieved handles are
// lock-free atomics.
//
// A nil *Observer is a valid no-op sink: Emit returns immediately and
// Counter/Histogram return nil (no-op) handles, so instrumented hot paths
// cost one branch when observability is off.
type Observer struct {
	regMu    sync.Mutex
	counters map[key[Kind]]*Counter   // guarded by regMu
	hists    map[key[Hist]]*Histogram // guarded by regMu

	// tracer is an optional attachment, loaded lock-free by Tracer().
	tracer atomic.Pointer[Tracer]

	mu      sync.Mutex
	subs    map[int]func(Event) // guarded by mu
	nextSub int                 // guarded by mu
	// nsubs mirrors len(subs) so Emit can skip the fan-out lock when
	// nobody is listening.
	nsubs atomic.Int32
}

// NewObserver returns an Observer with an empty registry.
func NewObserver() *Observer {
	return &Observer{
		counters: map[key[Kind]]*Counter{},
		hists:    map[key[Hist]]*Histogram{},
		subs:     map[int]func(Event){},
	}
}

// Emit records one event: the counter of the event's Kind, scoped by its
// Domain and Router, grows by the event's Count (1 when zero), and every
// subscriber runs with the event. Safe on nil and for concurrent use.
//
// Subscribers run synchronously on the emitting goroutine. Instrumented
// components emit only outside their internal locks, so subscribers may
// inspect component state; they must not block.
func (o *Observer) Emit(e Event) {
	if o == nil || !e.Kind.valid() {
		return
	}
	o.Counter(e.Kind, e.Domain, e.Router).Add(max(e.Count, 1))
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
