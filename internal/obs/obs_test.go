package obs

import (
	"strings"
	"sync"
	"testing"

	"mascbgmp/internal/addr"
)

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.Emit(Event{Kind: MASCClaim, Domain: 1}) // must not panic
	cancel := o.Subscribe(func(Event) { t.Fatal("subscriber on nil observer") })
	cancel()
	o.Counter(MASCClaim, 1, 2).Add(5) // nil observer, nil counter: no-ops
	o.Histogram(HistDetect, 1, 2).Observe(5)
	if got := o.Snapshot().Prometheus(); got != "" {
		t.Fatalf("nil observer snapshot is not empty:\n%s", got)
	}
}

func TestEmitCountsByKindAndScope(t *testing.T) {
	o := NewObserver()
	o.Emit(Event{Kind: BGMPJoin, Domain: 2, Router: 21})
	o.Emit(Event{Kind: BGMPJoin, Domain: 2, Router: 21})
	o.Emit(Event{Kind: BGMPJoin, Domain: 3, Router: 31})
	o.Emit(Event{Kind: DataForwarded, Domain: 2, Router: 21, Count: 7})
	s := o.Snapshot()
	if got := s.Get(BGMPJoin, 2, 21); got != 2 {
		t.Fatalf("bgmp.join@2/21 = %d, want 2", got)
	}
	if got := s.Total(BGMPJoin); got != 3 {
		t.Fatalf("bgmp.join total = %d, want 3", got)
	}
	if got := s.Total(DataForwarded); got != 7 {
		t.Fatalf("data.forwarded total = %d, want 7 (Count magnitude)", got)
	}
}

func TestSubscribeAndCancel(t *testing.T) {
	o := NewObserver()
	var got []Event
	cancel := o.Subscribe(func(e Event) { got = append(got, e) })
	o.Emit(Event{Kind: MASCWon, Domain: 1, Prefix: addr.MustParsePrefix("224.1.0.0/16")})
	cancel()
	o.Emit(Event{Kind: MASCWon, Domain: 1})
	if len(got) != 1 {
		t.Fatalf("subscriber saw %d events, want 1", len(got))
	}
	if want := "masc.won domain=1 prefix=224.1.0.0/16"; got[0].String() != want {
		t.Fatalf("event string = %q, want %q", got[0].String(), want)
	}
}

func TestSnapshotDiffAndDeterministicRendering(t *testing.T) {
	o := NewObserver()
	o.Emit(Event{Kind: BGPAnnounce, Domain: 1, Router: 11})
	before := o.Snapshot()
	o.Emit(Event{Kind: BGPAnnounce, Domain: 1, Router: 11})
	o.Emit(Event{Kind: BGPWithdraw, Domain: 1, Router: 11})
	after := o.Snapshot()
	d := after.Diff(before)
	if d.Get(BGPAnnounce, 1, 11) != 1 || d.Get(BGPWithdraw, 1, 11) != 1 {
		t.Fatalf("diff wrong: %v", d.String())
	}
	// Rendering is sorted and stable.
	want := "bgp.announce domain=1 router=11 1\nbgp.withdraw domain=1 router=11 1\n"
	if d.String() != want {
		t.Fatalf("diff rendering = %q, want %q", d.String(), want)
	}
	if after.String() != o.Snapshot().String() {
		t.Fatal("identical state rendered differently")
	}
	if !strings.Contains(after.Totals(), "bgp.announce") {
		t.Fatalf("totals missing name: %q", after.Totals())
	}
}

func TestConcurrentEmitIsRaceFreeAndExact(t *testing.T) {
	o := NewObserver()
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Emit(Event{Kind: TransportSent, Domain: 1, Router: 11})
				o.Counter(MAASLease, 0, 0).Add(1)
			}
		}(g)
	}
	// Subscribe and cancel concurrently with emission.
	for i := 0; i < 100; i++ {
		o.Subscribe(func(Event) {})()
	}
	wg.Wait()
	s := o.Snapshot()
	if got := s.Get(TransportSent, 1, 11); got != goroutines*per {
		t.Fatalf("transport.sent = %d, want %d", got, goroutines*per)
	}
	if got := s.Get(MAASLease, 0, 0); got != goroutines*per {
		t.Fatalf("direct counter = %d, want %d", got, goroutines*per)
	}
}
