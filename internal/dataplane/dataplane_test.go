package dataplane

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
	b := makeBits(nil, []wire.DomainID{3, 7, 64, 130, 200}, 7, 200)
	if len(b) != 3 {
		t.Fatalf("makeBits words = %d, want 3", len(b))
	}
	if got, want := setBits(b), []uint32{3, 64, 130}; !reflect.DeepEqual(got, want) {
		t.Errorf("setBits = %v, want %v", got, want)
	}
	if !hasBit(b, 64) || hasBit(b, 7) || hasBit(b, 200) {
		t.Error("hasBit must see exactly the bits made")
	}
	if makeBits(nil, []wire.DomainID{7, 200}, 7, 200) != nil {
		t.Error("makeBits of nothing but skipped domains must be nil")
	}
	// Built into a dirty array that is longer, shorter or as long, a string
	// is what building into nil gives, and it lands in that array if it fits.
	for _, ds := range [][]wire.DomainID{{3, 64}, {1}, {3, 7, 64, 130, 200}, {250}, {7, 200}} {
		want := makeBits(nil, ds, 7, 200)
		for _, dirty := range [][]uint64{{^uint64(0)}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, make([]uint64, 1, 8)} {
			dirty[0] = ^uint64(0)
			got := makeBits(dirty, ds, 7, 200)
			if !slices.Equal(got, want) {
				t.Errorf("makeBits(%x, %v) = %x, want %x as from nil", dirty, ds, got, want)
			}
			if len(got) > 0 && len(got) <= cap(dirty) && &got[0] != &dirty[:1][0] {
				t.Errorf("makeBits(%x, %v) left the array it fits in", dirty, ds)
			}
		}
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

// TestStoreRefcounts checks the store's refcounts and AppendMembers' copy:
// ascending, appended after what dst holds, the caller's to keep however
// the membership changes after, and free to take into a reused dst, the
// first call after a change (which rebuilds the sorted list) included.
func TestStoreRefcounts(t *testing.T) {
	g := addr.MakeAddr(224, 1, 0, 1)
	g2 := addr.MakeAddr(224, 1, 0, 2)
	s := NewStore()
	s.Add(g, 5)
	s.Add(g, 3)
	s.Add(g, 5)
	s.Add(g2, 7)
	if got, want := s.AppendMembers([]wire.DomainID{9}, g), []wire.DomainID{9, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("AppendMembers after [9] = %v, want %v", got, want)
	}
	if s.Entries() != 3 {
		t.Errorf("Entries = %d, want 3", s.Entries())
	}
	s.Remove(g, 5)
	if got, want := s.AppendMembers(nil, g), []wire.DomainID{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("refcounted Remove dropped the member early: %v, want %v", got, want)
	}
	// A copy is the caller's: the store's own list is rebuilt in place.
	held := s.AppendMembers(nil, g)
	s.Add(g, 4)
	if got, want := s.AppendMembers(nil, g), []wire.DomainID{3, 4, 5}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(held, []wire.DomainID{3, 5}) {
		t.Errorf("after Add: AppendMembers = %v, want %v; the copy taken before = %v, want [3 5]", got, want, held)
	}
	s.Remove(g, 4)
	if got, want := s.AppendMembers(nil, g), []wire.DomainID{3, 5}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(held, []wire.DomainID{3, 5}) {
		t.Errorf("after Remove: AppendMembers = %v, want %v; the copy taken before = %v, want [3 5]", got, want, held)
	}
	dst := make([]wire.DomainID, 0, 4)
	churn := func() {
		s.Remove(g, 3)
		dst = s.AppendMembers(dst[:0], g)
		s.Add(g, 3)
		dst = s.AppendMembers(dst[:0], g)
	}
	churn() // the store's list reaches its peak
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Errorf("a change and AppendMembers into a reused dst allocate %v per round", n)
	}
	if n := testing.AllocsPerRun(20, func() { dst = s.AppendMembers(dst[:0], g) }); n != 0 {
		t.Errorf("AppendMembers into a reused dst allocates %v per call with no change between", n)
	}
	if want := []wire.DomainID{3, 5}; !reflect.DeepEqual(dst, want) {
		t.Errorf("after the rounds: AppendMembers = %v, want %v", dst, want)
	}
	s.Remove(g, 5)
	s.Remove(g, 3)
	if got := s.AppendMembers(nil, g); len(got) != 0 {
		t.Errorf("AppendMembers after removal = %v, want empty", got)
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

// keep returns a copy of m the recorder may hold past the call. A message
// handed to SendPeer, RelayToBorder or Inject is the caller's again when
// the call returns (DESIGN.md §17), and the overlay reuses its memory for
// packets and the MemberReports it originates, so a stub that kept the
// pointer would read whatever came next.
func keep(m wire.Message) wire.Message {
	d, ok := m.(*wire.Data)
	if !ok {
		cp, err := wire.Decode(wire.Encode(m))
		if err != nil {
			panic(err)
		}
		return cp
	}
	cp := *d
	cp.Bits, cp.Payload = slices.Clone(d.Bits), slices.Clone(d.Payload)
	return &cp
}

func (m *stubMIGP) JoinGroup(addr.Addr)  {}
func (m *stubMIGP) LeaveGroup(addr.Addr) {}
func (m *stubMIGP) RelayToBorder(to wire.RouterID, msg wire.Message) {
	m.relays = append(m.relays, hop{to, keep(msg)})
}
func (m *stubMIGP) Inject(d *wire.Data) bool {
	if m.injectOK {
		m.injected = append(m.injected, keep(d).(*wire.Data))
	}
	return m.injectOK
}
func (m *stubMIGP) ExpectedEntry(addr.Addr) wire.RouterID { return m.expected }

// overlayRig is an overlay, map-and-encap unless made by newOverlayRigOf,
// at router 1 of domain 5 with every RIB view answering ent; routers >= 100
// are sibling borders.
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
	return newOverlayRigOf(NewMapEncap, ent, routed)
}

// newOverlayRigOf is newOverlayRig with the backend made by newBackend.
func newOverlayRigOf(newBackend func(Config) Backend, ent bgp.Entry, routed bool) *overlayRig {
	r := &overlayRig{migp: &stubMIGP{injectOK: true}, store: NewStore(), ent: ent, routed: routed}
	ob := obs.NewObserver()
	ob.Subscribe(func(e obs.Event) { r.events = append(r.events, e) })
	lookup := func(addr.Addr) (bgp.Entry, bool) { return r.ent, r.routed }
	r.b = newBackend(Config{
		Router: 1, Domain: 5,
		LookupGroup: lookup, LookupUnicast: lookup,
		Internal:     func(id wire.RouterID) bool { return id >= 100 },
		SendPeer:     func(to wire.RouterID, m wire.Message) { r.sent = append(r.sent, hop{to, keep(m)}) },
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
			if got := len(r.store.AppendMembers(nil, group)) == 1; got != tc.wantStored {
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

// TestLeaveCancelsParkedJoin: a local join made before any G-RIB route
// exists is parked, and a leave before the route appears cancels it. Once a
// route appears, toward the root or ending at this domain, RouteChanged
// must send no MemberReport and the Store must hold nothing, on both
// overlays.
func TestLeaveCancelsParkedJoin(t *testing.T) {
	group := addr.MakeAddr(224, 1, 0, 1)
	for _, mode := range []struct {
		name string
		new  func(Config) Backend
	}{{BIERName, NewBIER}, {MapEncapName, NewMapEncap}} {
		for _, route := range []struct {
			where string
			ent   bgp.Entry
		}{
			{"toward the root", bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}},
			{"at the root", bgp.Entry{Route: wire.Route{Origin: 5}, Local: true}},
		} {
			r := newOverlayRigOf(mode.new, bgp.Entry{}, false)
			r.b.LocalJoin(group)
			r.b.LocalLeave(group)
			r.ent, r.routed = route.ent, true
			r.b.RouteChanged(addr.Prefix{Base: group, Len: 32}, wire.TraceContext{})
			if len(r.sent)+len(r.migp.relays) != 0 {
				t.Errorf("%s, route %s: sent %v and relayed %v for a join its leave cancelled", mode.name, route.where, r.sent, r.migp.relays)
			}
			if n := r.store.Entries(); n != 0 {
				t.Errorf("%s, route %s: the Store holds %d entries for a join its leave cancelled", mode.name, route.where, n)
			}
		}
	}
}

// TestScratchSurvivesReentry holds the overlay's free list to what a
// synchronous network asks of it: a packet handed to SendPeer is delivered
// by nested call, so another packet can run through the same router before
// the first call returns. A root of each overlay fans two groups out to
// peers 20 and 21; the first time SendPeer is called it delivers the other
// group's packet, other payload and other bitstring, back into the same
// backend, and only then records a deep copy of the message it was handed,
// which must still be whole. Every message either packet sends must equal
// that packet's run alone. One scratch per router fails this: the nested
// call writes its copy over the one still in flight.
func TestScratchSurvivesReentry(t *testing.T) {
	outer := &wire.Data{Group: addr.MakeAddr(224, 1, 0, 1), Source: addr.MakeAddr(10, 0, 9, 1), TTL: 16,
		Payload: []byte("the outer packet, to the first group")}
	inner := &wire.Data{Group: addr.MakeAddr(224, 1, 0, 2), Source: addr.MakeAddr(10, 0, 9, 2), TTL: 9,
		Payload: []byte("inner")}
	members := map[addr.Addr][]wire.DomainID{
		outer.Group: {10, 11, 12, 13, 70},    // two words
		inner.Group: {20, 21, 130, 131, 140}, // three
	}
	for _, mode := range []string{BIERName, MapEncapName} {
		// run delivers d to a fresh root twice, with reenter's nested
		// delivery armed for the second, and returns what that one sent.
		run := func(d, reenter *wire.Data) []hop {
			var b Backend
			var sent []hop
			armed := false
			store := NewStore()
			for g, ds := range members {
				for _, m := range ds {
					store.Add(g, m)
				}
			}
			b = newOverlay(Config{
				Router: 1, Domain: 5,
				LookupGroup: func(addr.Addr) (bgp.Entry, bool) {
					return bgp.Entry{Route: wire.Route{Origin: 5}, NextHop: 1, Local: true}, true
				},
				LookupUnicast: func(a addr.Addr) (bgp.Entry, bool) {
					dom := wire.DomainID(a >> 8 & 0xffff)
					return bgp.Entry{Route: wire.Route{Origin: dom}, NextHop: wire.RouterID(20 + dom%2)}, true
				},
				UnicastGeneration: func() uint64 { return 1 },
				SendPeer: func(to wire.RouterID, m wire.Message) {
					if armed {
						armed = false
						b.Deliver(bgmp.PeerTarget(8), reenter)
					}
					sent = append(sent, hop{to, keep(m)})
				},
				MIGP: &stubMIGP{},
				DomainAddr: func(d wire.DomainID) (addr.Addr, bool) {
					return addr.MakeAddr(10, byte(d>>8), byte(d), 0), true
				},
				SourceDomain: func(addr.Addr) (wire.DomainID, bool) { return 9, true },
				Store:        store,
			}, mode)
			b.Deliver(bgmp.PeerTarget(8), d) // leaves dirty scratch behind
			sent, armed = nil, reenter != nil
			b.Deliver(bgmp.PeerTarget(8), d)
			return sent
		}
		alone := map[addr.Addr][]hop{outer.Group: run(outer, nil), inner.Group: run(inner, nil)}
		peers := map[wire.RouterID]bool{}
		for _, h := range alone[outer.Group] {
			peers[h.to] = true
		}
		if len(peers) < 2 {
			t.Fatalf("%s: the outer packet reaches %d peers; a nested call could not land between two copies", mode, len(peers))
		}
		got := map[addr.Addr][]hop{}
		for _, h := range run(outer, inner) {
			g := h.msg.(*wire.Data).Group
			got[g] = append(got[g], h)
		}
		for g, want := range alone {
			if !reflect.DeepEqual(got[g], want) {
				t.Errorf("%s, group %v: with a nested delivery sent\n%s\nwant, as alone,\n%s", mode, g, hops(got[g]), hops(want))
			}
		}
	}
}

// hops prints a list of data messages one a line.
func hops(hs []hop) string {
	var b strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&b, "  to %d: %+v\n", h.to, *h.msg.(*wire.Data))
	}
	return b.String()
}
