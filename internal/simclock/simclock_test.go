package simclock

import (
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowStandsStill(t *testing.T) {
	s := NewSim(t0)
	if !s.Now().Equal(t0) {
		t.Fatalf("Now = %v, want %v", s.Now(), t0)
	}
	s.AfterFunc(time.Hour, func() {})
	if !s.Now().Equal(t0) {
		t.Fatal("scheduling must not advance time")
	}
}

func TestSimAfterFuncOrdering(t *testing.T) {
	s := NewSim(t0)
	var got []int
	s.AfterFunc(2*time.Hour, func() { got = append(got, 2) })
	s.AfterFunc(1*time.Hour, func() { got = append(got, 1) })
	s.AfterFunc(3*time.Hour, func() { got = append(got, 3) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run = %d events, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if !s.Now().Equal(t0.Add(3 * time.Hour)) {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSimFIFOAtSameInstant(t *testing.T) {
	s := NewSim(t0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Hour, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestSimEventSeesItsOwnTime(t *testing.T) {
	s := NewSim(t0)
	var seen time.Time
	s.AfterFunc(48*time.Hour, func() { seen = s.Now() })
	s.Run()
	if !seen.Equal(t0.Add(48 * time.Hour)) {
		t.Fatalf("event saw %v", seen)
	}
}

func TestSimStop(t *testing.T) {
	s := NewSim(t0)
	ran := false
	tm := s.AfterFunc(time.Hour, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report not pending")
	}
	s.Run()
	if ran {
		t.Fatal("stopped event must not run")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

func TestSimStopAfterFire(t *testing.T) {
	s := NewSim(t0)
	tm := s.AfterFunc(time.Hour, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(t0)
	var got []int
	s.AfterFunc(1*time.Hour, func() { got = append(got, 1) })
	s.AfterFunc(5*time.Hour, func() { got = append(got, 5) })
	n := s.RunUntil(t0.Add(2 * time.Hour))
	if n != 1 || len(got) != 1 {
		t.Fatalf("RunUntil ran %d events (%v)", n, got)
	}
	if !s.Now().Equal(t0.Add(2 * time.Hour)) {
		t.Fatalf("Now = %v, want deadline", s.Now())
	}
	s.RunFor(3 * time.Hour)
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("got = %v", got)
	}
}

// TestSimRunUntilPastStoppedEvent: a stopped event before the deadline
// must not pull in one after it.
func TestSimRunUntilPastStoppedEvent(t *testing.T) {
	s := NewSim(t0)
	ran := false
	s.AfterFunc(time.Hour, func() {}).Stop()
	s.AfterFunc(5*time.Hour, func() { ran = true })
	if n := s.RunFor(2 * time.Hour); n != 0 || ran || !s.Now().Equal(t0.Add(2*time.Hour)) {
		t.Fatalf("RunFor(2h) ran %d events (the 5 h one: %v), Now %v", n, ran, s.Now())
	}
}

func TestSimRescheduleFromCallback(t *testing.T) {
	s := NewSim(t0)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.AfterFunc(time.Hour, tick)
		}
	}
	s.AfterFunc(time.Hour, tick)
	s.RunUntil(t0.Add(24 * time.Hour))
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if !s.Now().Equal(t0.Add(24 * time.Hour)) {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSimNegativeAndPastSchedules(t *testing.T) {
	s := NewSim(t0)
	ran := 0
	s.AfterFunc(-time.Hour, func() { ran++ })
	s.At(t0.Add(-time.Hour), func() { ran++ })
	s.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if !s.Now().Equal(t0) {
		t.Fatalf("past events must not move time backwards: %v", s.Now())
	}
}

func TestSimConcurrentScheduling(t *testing.T) {
	s := NewSim(t0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.AfterFunc(time.Duration(i)*time.Minute, func() {
				mu.Lock()
				ran++
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	s.Run()
	if ran != 50 {
		t.Fatalf("ran = %d, want 50", ran)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatal("real clock is far in the past")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	tm := c.AfterFunc(time.Hour, func() {})
	if !tm.Stop() {
		t.Fatal("Stop on pending real timer should be true")
	}
}
