// Package simclock provides the simulated time source and discrete-event
// scheduler used throughout the reproduction.
//
// The MASC protocol is driven by long wall-clock timers — a 48-hour
// collision-listening period and 30-day address lifetimes — so the protocol
// implementations take a Clock rather than calling time.Now directly. In
// production (cmd/bgmpd) they receive the real clock; in simulations and
// tests they receive a *Sim, which advances virtual time instantly and
// deterministically.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts the time source. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules fn to run once d has elapsed and returns a
	// handle that can cancel it.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancelable pending call, the analogue of *time.Timer for the
// Clock abstraction.
type Timer interface {
	// Stop cancels the pending call, reporting whether it was still
	// pending. Stopping an already-fired or stopped timer returns false.
	Stop() bool
}

// Real is the wall-clock Clock backed by package time.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

// Sim is a simulated Clock. Time stands still until Run, RunUntil, RunFor,
// or Step drains scheduled events; each event observes Now() equal to its
// scheduled instant. Sim's zero value is not usable; construct with NewSim.
type Sim struct {
	mu   sync.Mutex
	now  time.Time  // guarded by mu
	seq  uint64     // guarded by mu
	pend eventQueue // guarded by mu
}

// NewSim returns a simulated clock whose current time is start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements Clock. The callback runs synchronously inside a
// subsequent Run/Step call, never concurrently with another callback.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &event{mu: &s.mu, at: s.now.Add(d), seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.pend, ev)
	return ev
}

// At schedules fn at an absolute instant. Instants in the past run at the
// current time on the next Step.
func (s *Sim) At(t time.Time, fn func()) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Before(s.now) {
		t = s.now
	}
	ev := &event{mu: &s.mu, at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.pend, ev)
	return ev
}

// Pending returns the number of scheduled, uncanceled events.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.pend {
		if !ev.stopped {
			n++
		}
	}
	return n
}

// Step advances to the next scheduled event and runs it, reporting whether
// an event ran. Canceled events are skipped without advancing time.
func (s *Sim) Step() bool {
	for {
		s.mu.Lock()
		if s.pend.Len() == 0 {
			s.mu.Unlock()
			return false
		}
		ev := heap.Pop(&s.pend).(*event)
		if ev.stopped {
			s.mu.Unlock()
			continue
		}
		s.now = ev.at
		ev.fired = true
		s.mu.Unlock()
		ev.fn()
		return true
	}
}

// RunUntil processes events scheduled at or before deadline, then sets the
// clock to deadline. It returns the number of events run.
func (s *Sim) RunUntil(deadline time.Time) int {
	n := 0
	for {
		s.mu.Lock()
		for s.pend.Len() > 0 && s.pend[0].stopped {
			heap.Pop(&s.pend) // else Step would skip it and run what lies past deadline
		}
		if s.pend.Len() == 0 || s.pend[0].at.After(deadline) {
			if s.now.Before(deadline) {
				s.now = deadline
			}
			s.mu.Unlock()
			return n
		}
		s.mu.Unlock()
		if s.Step() {
			n++
		}
	}
}

// RunFor advances the clock by d, processing everything due in between.
func (s *Sim) RunFor(d time.Duration) int {
	return s.RunUntil(s.Now().Add(d))
}

// Run drains every scheduled event, returning the number run. Callbacks may
// schedule further events; Run keeps going until the queue is empty, so a
// self-rearming timer makes Run diverge — use RunUntil for those workloads.
func (s *Sim) Run() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// event implements Timer and the heap entry. Its mutable fields are guarded
// by the owning Sim's mutex.
type event struct {
	mu      *sync.Mutex // the owning Sim's mutex
	at      time.Time
	seq     uint64 // FIFO tie-break for equal instants
	fn      func()
	idx     int
	stopped bool
	fired   bool
}

// Stop implements Timer.
func (e *event) Stop() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fired || e.stopped {
		return false
	}
	e.stopped = true
	return true
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
