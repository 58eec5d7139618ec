package dataplane

import (
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

func TestNames(t *testing.T) {
	want := []string{"shared-tree", "bier", "map-encap"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false", n)
		}
	}
	for _, n := range []string{"", "bgmp", "BIER", "shared"} {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true", n)
		}
	}
}

func TestBitstringHelpers(t *testing.T) {
	b := makeBits([]wire.DomainID{3, 7, 64, 130, 200}, 7, 200)
	if len(b) != 3 {
		t.Fatalf("makeBits words = %d, want 3", len(b))
	}
	if got, want := setBits(b), []uint32{3, 64, 130}; !reflect.DeepEqual(got, want) {
		t.Errorf("setBits = %v, want %v", got, want)
	}
	if !hasBit(b, 64) || hasBit(b, 7) || hasBit(b, 200) {
		t.Error("hasBit must see exactly the bits made")
	}
	if makeBits([]wire.DomainID{7, 200}, 7, 200) != nil {
		t.Error("makeBits of nothing but skipped domains must be nil")
	}
	if !clearBit(b, 64) || clearBit(b, 64) {
		t.Error("clearBit must report and clear exactly once")
	}
	if clearBit(b, 200) {
		t.Error("clearBit out of range must report false")
	}
	if got, want := setBits(b), []uint32{3, 130}; !reflect.DeepEqual(got, want) {
		t.Errorf("after clear, setBits = %v, want %v", got, want)
	}
	clearBit(b, 130)
	if got := trimBits(b); len(got) != 1 {
		t.Errorf("trimBits kept %d words, want 1", len(got))
	}
	clearBit(b, 3)
	if anyBit(b) {
		t.Error("anyBit on empty string")
	}
	if got := trimBits(b); len(got) != 0 {
		t.Errorf("trimBits on empty kept %d words", len(got))
	}
	// setBit must not grow the string (the caller sizes it).
	s := make([]uint64, 1)
	setBit(s, 70)
	if anyBit(s) {
		t.Error("setBit out of range must be a no-op")
	}
}

func TestStoreRefcounts(t *testing.T) {
	g := addr.MakeAddr(224, 1, 0, 1)
	g2 := addr.MakeAddr(224, 1, 0, 2)
	s := NewStore()
	s.Add(g, 5)
	s.Add(g, 3)
	s.Add(g, 5)
	s.Add(g2, 7)
	if got, want := s.Members(g), []wire.DomainID{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
	if s.Entries() != 3 {
		t.Errorf("Entries = %d, want 3", s.Entries())
	}
	s.Remove(g, 5)
	if got, want := s.Members(g), []wire.DomainID{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("refcounted Remove dropped the member early: %v, want %v", got, want)
	}
	// The list is built once per change, and a list handed out never moves.
	held := s.Members(g)
	if n := testing.AllocsPerRun(10, func() { s.Members(g) }); n != 0 {
		t.Errorf("Members allocates %v per call with no change between", n)
	}
	s.Add(g, 4)
	if got, want := s.Members(g), []wire.DomainID{3, 4, 5}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(held, []wire.DomainID{3, 5}) {
		t.Errorf("after Add: Members = %v, want %v; the list held from before = %v, want [3 5]", got, want, held)
	}
	s.Remove(g, 4)
	s.Remove(g, 5)
	s.Remove(g, 3)
	if got := s.Members(g); len(got) != 0 {
		t.Errorf("Members after removal = %v, want empty", got)
	}
	s.Remove(g, 99) // unknown member: no-op
	if s.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", s.Entries())
	}
}

func TestHeaderCostModel(t *testing.T) {
	if BIERHeaderBytes(0) != BIERFixedHeaderBytes {
		t.Error("empty bitstring must cost only the fixed header")
	}
	if BIERHeaderBytes(4) != BIERFixedHeaderBytes+32 {
		t.Errorf("BIERHeaderBytes(4) = %d", BIERHeaderBytes(4))
	}
}

// stubMIGP scripts the interior's answers and records what the overlay
// hands it.
type stubMIGP struct {
	injectOK bool
	expected wire.RouterID
	injected []*wire.Data
	relays   []hop
}

// hop is one message leaving the router: to a peer or, through the
// interior, to a sibling border.
type hop struct {
	to  wire.RouterID
	msg wire.Message
}

func (m *stubMIGP) JoinGroup(addr.Addr)  {}
func (m *stubMIGP) LeaveGroup(addr.Addr) {}
func (m *stubMIGP) RelayToBorder(to wire.RouterID, msg wire.Message) {
	m.relays = append(m.relays, hop{to, msg})
}
func (m *stubMIGP) Inject(d *wire.Data) bool {
	if m.injectOK {
		m.injected = append(m.injected, d)
	}
	return m.injectOK
}
func (m *stubMIGP) ExpectedEntry(addr.Addr) wire.RouterID { return m.expected }

// overlayRig is a map-and-encap overlay at router 1 of domain 5 with every
// RIB view answering ent; routers >= 100 are sibling borders.
type overlayRig struct {
	b      Backend
	migp   *stubMIGP
	store  *Store
	sent   []hop
	events []obs.Event
	ent    bgp.Entry
	routed bool
}

func newOverlayRig(ent bgp.Entry, routed bool) *overlayRig {
	r := &overlayRig{migp: &stubMIGP{injectOK: true}, store: NewStore(), ent: ent, routed: routed}
	ob := obs.NewObserver()
	ob.Subscribe(func(e obs.Event) { r.events = append(r.events, e) })
	lookup := func(addr.Addr) (bgp.Entry, bool) { return r.ent, r.routed }
	r.b = NewMapEncap(Config{
		Router: 1, Domain: 5,
		LookupGroup: lookup, LookupUnicast: lookup,
		Internal:     func(id wire.RouterID) bool { return id >= 100 },
		SendPeer:     func(to wire.RouterID, m wire.Message) { r.sent = append(r.sent, hop{to, m}) },
		MIGP:         r.migp,
		DomainAddr:   func(d wire.DomainID) (addr.Addr, bool) { return addr.MakeAddr(10, byte(d), 0, 0), true },
		SourceDomain: func(addr.Addr) (wire.DomainID, bool) { return 9, true },
		Store:        r.store,
		Obs:          ob,
	})
	return r
}

// TestOverlayEgress drives one tunnelled packet through the overlay and
// checks the hand-off bgmp.Egress makes plus the overlay's own accounting.
func TestOverlayEgress(t *testing.T) {
	group, source := addr.MakeAddr(224, 1, 0, 1), addr.MakeAddr(10, 9, 0, 7)
	away := func(nextHop wire.RouterID) bgp.Entry {
		return bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: nextHop}
	}
	here := bgp.Entry{Route: wire.Route{Origin: 5}, NextHop: 1, Local: true}
	cases := []struct {
		name     string
		ent      bgp.Entry
		ttl      uint8
		encap    bool // an egress copy: decapsulates where the tunnel lands
		injectOK bool
		expected wire.RouterID

		wantTo       wire.RouterID // zero: nothing leaves the router
		wantRelay    bool          // it leaves through the interior, not on a peering
		wantTTL      uint8
		wantInjected bool
		wantEvent    obs.Kind
		want         Stats
	}{
		// The hop's TTL is the receiving router's to spend (core.TestTTLReach):
		// the copy leaves with the TTL it came with.
		{name: "peer hop spends a TTL and a tunnel header", ent: away(7), ttl: 16,
			wantTo: 7, wantTTL: 16, wantEvent: obs.DataForwarded,
			want: Stats{PeerSends: 1, HeaderBytes: EncapHeaderBytes}},
		{name: "TTL 1 is dropped at the peering", ent: away(7), ttl: 1},
		{name: "sibling next hop relays through the interior", ent: away(103), ttl: 16,
			wantTo: 103, wantRelay: true, wantTTL: 16, want: Stats{Relays: 1}},
		{name: "landed egress copy is injected natively", ent: here, ttl: 16, encap: true, injectOK: true,
			wantInjected: true},
		{name: "interior RPF refusal encapsulates to the expected entry", ent: here, ttl: 16, encap: true, expected: 103,
			wantTo: 103, wantRelay: true, wantTTL: 16, wantEvent: obs.DataEncap, want: Stats{Encaps: 1}},
		{name: "refusal with no expected entry drops", ent: here, ttl: 16, encap: true},
		{name: "refusal at the expected entry itself drops", ent: here, ttl: 16, encap: true, expected: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newOverlayRig(tc.ent, true)
			r.migp.injectOK, r.migp.expected = tc.injectOK, tc.expected
			r.b.Deliver(bgmp.PeerTarget(8), &wire.Data{Group: group, Source: source, TTL: tc.ttl,
				TunnelTo: addr.MakeAddr(10, 5, 0, 0), Encap: tc.encap})

			left, other := r.sent, r.migp.relays
			if tc.wantRelay {
				left, other = other, left
			}
			if len(other) != 0 || (tc.wantTo == 0) != (len(left) == 0) {
				t.Fatalf("sent = %v relays = %v, want to=%d relay=%v", r.sent, r.migp.relays, tc.wantTo, tc.wantRelay)
			}
			if tc.wantTo != 0 {
				out := left[0].msg.(*wire.Data)
				if len(left) != 1 || left[0].to != tc.wantTo || out.TTL != tc.wantTTL {
					t.Errorf("left = %v (TTL %d), want one copy to %d with TTL %d", left, out.TTL, tc.wantTo, tc.wantTTL)
				}
				if tc.wantEvent == obs.DataEncap && !(out.Encap && out.TunnelTo == 0) {
					t.Errorf("encapsulated copy = %+v, want Encap set and the tunnel header gone", out)
				}
			}
			if got := len(r.migp.injected) == 1; got != tc.wantInjected {
				t.Errorf("injected = %v, want %v", r.migp.injected, tc.wantInjected)
			} else if got && (r.migp.injected[0].Encap || r.migp.injected[0].TunnelTo != 0) {
				t.Errorf("interior saw backend headers: %+v", r.migp.injected[0])
			}
			if tc.wantEvent == 0 {
				if len(r.events) != 0 {
					t.Errorf("events = %v, want none", r.events)
				}
			} else if len(r.events) != 1 || r.events[0].Kind != tc.wantEvent || r.events[0].Peer != tc.wantTo {
				t.Errorf("events = %v, want one %v toward %d", r.events, tc.wantEvent, tc.wantTo)
			}
			if got := r.b.Stats(); got != tc.want {
				t.Errorf("Stats = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestOverlayRootTest pins that the overlay decides "is this the group's
// root domain, else which way" through bgmp's resolver: a local join is
// recorded in the Store at a root-domain border, sent one hop toward the
// root elsewhere, and parked until a route appears.
func TestOverlayRootTest(t *testing.T) {
	group := addr.MakeAddr(224, 1, 0, 1)
	cases := []struct {
		name                string
		ent                 bgp.Entry
		routed              bool
		wantPeer, wantRelay wire.RouterID
		wantStored          bool
	}{
		{name: "originated by this domain", ent: bgp.Entry{Route: wire.Route{Origin: 5}, NextHop: 102}, routed: true, wantStored: true},
		{name: "local", ent: bgp.Entry{Route: wire.Route{Origin: 9}, Local: true}, routed: true, wantStored: true},
		{name: "next hop is this router", ent: bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 1}, routed: true, wantStored: true},
		{name: "sibling border", ent: bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 103}, routed: true, wantRelay: 103},
		{name: "external peer", ent: bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}, routed: true, wantPeer: 7},
		{name: "no route"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newOverlayRig(tc.ent, tc.routed)
			r.b.LocalJoin(group)
			if got := len(r.store.Members(group)) == 1; got != tc.wantStored {
				t.Errorf("stored = %v, want %v", got, tc.wantStored)
			}
			if got := len(r.sent) == 1 && r.sent[0].to == tc.wantPeer; got != (tc.wantPeer != 0) || len(r.sent) > 1 {
				t.Errorf("sent = %v, want peer %d", r.sent, tc.wantPeer)
			}
			if got := len(r.migp.relays) == 1 && r.migp.relays[0].to == tc.wantRelay; got != (tc.wantRelay != 0) || len(r.migp.relays) > 1 {
				t.Errorf("relays = %v, want border %d", r.migp.relays, tc.wantRelay)
			}
			if tc.routed {
				return
			}
			// The parked join leaves the moment a covering route appears.
			r.ent, r.routed = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}, true
			r.b.RouteChanged(addr.Prefix{Base: group, Len: 32}, wire.TraceContext{})
			if len(r.sent) != 1 || r.sent[0].to != 7 {
				t.Errorf("after the route appeared sent = %v, want the parked report to peer 7", r.sent)
			}
		})
	}
}
