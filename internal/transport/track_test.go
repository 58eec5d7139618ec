package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

func TestNilTrackerAndFlightAreNoOps(t *testing.T) {
	var tr *Tracker
	if err := tr.Quiesce(time.Millisecond); err != nil {
		t.Fatalf("nil tracker quiesce: %v", err)
	}
	f := tr.NewFlight()
	f.Sent()
	f.Handled()
	f.Close()
	if tr.InFlight() != 0 {
		t.Fatal("nil tracker counted")
	}
}

func TestQuiesceWaitsForCascade(t *testing.T) {
	tr := &Tracker{}
	f := tr.NewFlight()
	f.Sent()
	f.Sent()
	done := make(chan error, 1)
	go func() { done <- tr.Quiesce(5 * time.Second) }()
	select {
	case err := <-done:
		t.Fatalf("quiesce returned with messages in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	f.Handled()
	// Simulate a cascade: handling the last message spawns another.
	f.Sent()
	f.Handled()
	f.Handled()
	if err := <-done; err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

func TestQuiesceTimesOutOnStuckMessage(t *testing.T) {
	tr := &Tracker{}
	f := tr.NewFlight()
	f.Sent()
	err := tr.Quiesce(30 * time.Millisecond)
	if !errors.Is(err, ErrQuiesceTimeout) {
		t.Fatalf("err = %v, want ErrQuiesceTimeout", err)
	}
	// Closing the flight releases the stuck message.
	f.Close()
	if err := tr.Quiesce(time.Second); err != nil {
		t.Fatalf("quiesce after close: %v", err)
	}
}

func TestFlightCloseReleasesInTransit(t *testing.T) {
	tr := &Tracker{}
	f := tr.NewFlight()
	f.Sent()
	f.Sent()
	f.Sent()
	f.Handled()
	if got := tr.InFlight(); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	f.Close()
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("in flight after close = %d, want 0", got)
	}
	f.Sent() // post-close activity is ignored
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("post-close send counted: %d", got)
	}
}

// TestPeerTracksInFlightMessages runs two peers over a pipe and checks the
// tracker sees the message through to handler completion, and that the obs
// counters record the session traffic.
func TestPeerTracksInFlightMessages(t *testing.T) {
	tr := &Tracker{}
	ob := obs.NewObserver()
	ab, ba := tr.NewFlight(), tr.NewFlight()
	ca, cb := Pipe()

	handled := make(chan wire.Message, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	var pa *Peer
	go func() {
		defer wg.Done()
		var err error
		pa, err = StartPeer(ca, PeerConfig{
			Local: wire.Open{Router: 1, Domain: 10},
			Out:   ab, In: ba, Obs: ob,
			Handler: func(_ *Peer, m wire.Message) { handled <- m },
		})
		if err != nil {
			t.Error(err)
		}
	}()
	pb, err := StartPeer(cb, PeerConfig{
		Local: wire.Open{Router: 2, Domain: 20},
		Out:   ba, In: ab, Obs: ob,
		Handler: func(_ *Peer, m wire.Message) {
			time.Sleep(10 * time.Millisecond) // processing time visible to Quiesce
			handled <- m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	defer pa.Close()
	defer pb.Close()

	if err := pa.Send(&wire.GroupJoin{Group: 0xe1000001}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	select {
	case <-handled:
	default:
		t.Fatal("quiesce returned before the handler finished")
	}
	s := ob.Snapshot()
	if s.Get(obs.TransportSent, 10, 1) != 1 {
		t.Fatalf("transport.sent@10/1 = %d, want 1\n%s", s.Get(obs.TransportSent, 10, 1), s)
	}
	if s.Get(obs.TransportRecv, 20, 2) != 1 {
		t.Fatalf("transport.recv@20/2 = %d, want 1\n%s", s.Get(obs.TransportRecv, 20, 2), s)
	}
}
