package obs

import (
	"strings"
	"testing"

	"mascbgmp/internal/wire"
)

func TestNilFlightRecorderIgnoresRecords(t *testing.T) {
	var f *FlightRecorder
	f.Record(Event{Kind: BGMPJoin, Domain: 1, Router: 11})
	if d := f.Dump(); d != "" {
		t.Fatalf("nil dump = %q", d)
	}
}

func TestFlightRecorderRetainsBoundedTail(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 10; i++ {
		f.Record(Event{Kind: BGMPJoin, Domain: 1, Router: 11, Peer: wire.RouterID(20 + i)})
	}
	dump := f.Dump()
	// Only the last 3 events (seq 8, 9, 10) survive the ring.
	for _, want := range []string{"#8 ", "#9 ", "#10 "} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "#7 ") {
		t.Fatalf("dump retained evicted entry:\n%s", dump)
	}
}

func TestFlightRecorderDumpOrdersScopes(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(Event{Kind: BGMPJoin, Domain: 2, Router: 21})
	f.Record(Event{Kind: BGMPJoin, Domain: 1, Router: 12})
	f.Record(Event{Kind: BGMPJoin, Domain: 1, Router: 11})
	dump := f.Dump()
	i11 := strings.Index(dump, "domain=1 router=11")
	i12 := strings.Index(dump, "domain=1 router=12")
	i21 := strings.Index(dump, "domain=2 router=21")
	if i11 < 0 || i12 < 0 || i21 < 0 || !(i11 < i12 && i12 < i21) {
		t.Fatalf("scopes out of order (%d, %d, %d):\n%s", i11, i12, i21, dump)
	}
}

func TestObserverEmitFeedsFlightRecorder(t *testing.T) {
	ob := NewObserver()
	fr := NewFlightRecorder(8)
	ob.Subscribe(fr.Record)
	ob.Emit(Event{Kind: BGMPJoin, Domain: 3, Router: 31})
	if dump := fr.Dump(); !strings.Contains(dump, "domain=3 router=31") {
		t.Fatalf("recorder missed emitted event:\n%s", dump)
	}
}
