package dataplane

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// ---- the per-packet derivation the BIFT replaced, kept as the oracle ----

func setBit(b []uint64, i uint32) {
	if w := int(i / 64); w < len(b) {
		b[w] |= 1 << (i % 64)
	}
}

func clearBit(b []uint64, i uint32) bool {
	w := int(i / 64)
	if w >= len(b) || b[w]&(1<<(i%64)) == 0 {
		return false
	}
	b[w] &^= 1 << (i % 64)
	return true
}

func anyBit(b []uint64) bool {
	return slices.ContainsFunc(b, func(w uint64) bool { return w != 0 })
}

// setBits returns the set bit indices in ascending order.
func setBits(b []uint64) []uint32 {
	var out []uint32
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint32(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// oracleDeliverBits is deliverBits as it was: clone the string, clear the
// own bit in the clone, forward what is left.
func oracleDeliverBits(o *overlay, d *wire.Data) {
	bs := append([]uint64(nil), d.Bits...)
	if clearBit(bs, uint32(o.cfg.Domain)) {
		cp := *d
		cp.Bits = nil
		o.injectLocal(&cp)
	}
	if anyBit(bs) {
		cp := *d
		cp.Bits = bs
		oracleForwardBits(o, &cp)
	}
}

// oracleForwardBits is forwardBits as it was: two RIB calls per set bit, a
// bucket and a full-width string per next hop in a map, sent in order of
// first occurrence.
func oracleForwardBits(o *overlay, d *wire.Data) {
	type bucket struct {
		to bgmp.Target
		bs []uint64
	}
	var order []wire.RouterID
	buckets := map[wire.RouterID]*bucket{}
	for _, dom := range setBits(d.Bits) {
		ta, ok := o.cfg.DomainAddr(wire.DomainID(dom))
		if !ok {
			continue
		}
		ue, ok := o.cfg.LookupUnicast(ta)
		if !ok {
			continue
		}
		bk := buckets[ue.NextHop]
		if bk == nil {
			bk = &bucket{to: o.eg.Toward(ue.NextHop), bs: make([]uint64, len(d.Bits))}
			buckets[ue.NextHop] = bk
			order = append(order, ue.NextHop)
		}
		setBit(bk.bs, dom)
	}
	for _, nh := range order {
		bk := buckets[nh]
		cp := *d
		cp.Bits = trimBits(bk.bs)
		oracleHop(o, bk.to, &cp, BIERHeaderBytes(len(cp.Bits)))
	}
}

// oracleDeliverTunnel is deliverTunnel as it was: a unicast lookup and
// Egress.Resolve per hop.
func oracleDeliverTunnel(o *overlay, d *wire.Data) {
	ue, ok := o.cfg.LookupUnicast(d.TunnelTo)
	if !ok {
		return
	}
	next, here := o.eg.Resolve(ue)
	if !here {
		oracleHop(o, next, d, EncapHeaderBytes)
		return
	}
	cp := *d
	cp.Bits, cp.TunnelTo, cp.Encap = nil, 0, false
	if d.Encap {
		o.injectLocal(&cp)
		return
	}
	ent, ok := o.cfg.LookupGroup(d.Group)
	if !ok {
		return
	}
	if _, inRoot := o.eg.Resolve(ent); inRoot {
		oracleRootReplicate(o, &cp, true)
		return
	}
	ta, ok := o.cfg.DomainAddr(ent.Route.Origin)
	if !ok || ta == d.TunnelTo {
		return
	}
	cp.TunnelTo = ta
	oracleDeliverTunnel(o, &cp)
}

// oracleRootReplicate is map-and-encap's rootReplicate as it was: an anchor
// address from DomainAddr and a tunnel from oracleDeliverTunnel per member.
func oracleRootReplicate(o *overlay, d *wire.Data, injectLocally bool) {
	members := o.cfg.Store.AppendMembers(nil, d.Group)
	srcDom, haveSrcDom := o.cfg.SourceDomain(d.Source)
	if !haveSrcDom {
		srcDom = o.cfg.Domain
	} else if srcDom == o.cfg.Domain {
		injectLocally = false
	}
	if _, local := slices.BinarySearch(members, o.cfg.Domain); local && injectLocally {
		o.injectLocal(d)
	}
	for _, m := range members {
		if m == o.cfg.Domain || m == srcDom {
			continue
		}
		ta, ok := o.cfg.DomainAddr(m)
		if !ok {
			continue
		}
		cp := *d
		cp.TunnelTo = ta
		cp.Bits = nil
		cp.Encap = true
		o.count(Stats{Encaps: 1})
		oracleDeliverTunnel(o, &cp)
	}
}

// oracleHop is hop as it was: counted after the send, as ToPeer reports it.
func oracleHop(o *overlay, t bgmp.Target, d *wire.Data, headerBytes int) {
	if t.MIGP {
		o.count(Stats{Relays: 1})
		o.eg.Send(t, d)
	} else if o.eg.ToPeer(t.Router, d) {
		o.count(Stats{PeerSends: 1, HeaderBytes: uint64(headerBytes)})
	}
}

// ---- a unicast RIB reduced to what the overlay reads of one ----

const (
	biftSelf    = wire.DomainID(5) // the rig's own domain
	biftDomains = 140              // domains 1..biftDomains have an anchor address; higher bits name none
)

type ribStub struct {
	clk    *simclock.Sim
	gen    uint64
	routes map[wire.DomainID]stubRoute // by origin
	// stale suppresses generation bumps: the mutation the test must catch.
	stale bool
}

type stubRoute struct {
	nextHop    wire.RouterID
	expireUnix uint64
}

func (r *ribStub) expired(rt stubRoute) bool {
	return rt.expireUnix != 0 && uint64(r.clk.Now().Unix()) >= rt.expireUnix
}

func (r *ribStub) set(d wire.DomainID, rt stubRoute) {
	r.routes[d] = rt
	if !r.stale {
		r.gen++
	}
}

func (r *ribStub) drop(d wire.DomainID) {
	delete(r.routes, d)
	r.gen++
}

// domains returns the routed domains ascending.
func (r *ribStub) domains() []wire.DomainID {
	out := make([]wire.DomainID, 0, len(r.routes))
	for d := range r.routes {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

func (r *ribStub) domainAddr(d wire.DomainID) (addr.Addr, bool) {
	return addr.MakeAddr(10, byte(d>>8), byte(d), 0), d >= 1 && d <= biftDomains
}

func (r *ribStub) lookup(a addr.Addr) (bgp.Entry, bool) {
	d := wire.DomainID(a >> 8 & 0xffff)
	rt, ok := r.routes[d]
	if !ok || r.expired(rt) {
		return bgp.Entry{}, false
	}
	return bgp.Entry{Route: wire.Route{Origin: d, ExpireUnix: rt.expireUnix}, NextHop: rt.nextHop}, true
}

// biftRig is one overlay of either mode at router 1 of domain biftSelf over
// rib, logging everything that leaves it; routers >= 100 are sibling
// borders. Group 224.1.0.x is rooted at domain x.
type biftRig struct {
	o   *overlay
	log []string
}

func newBIFTRig(rib *ribStub, mode string) *biftRig {
	r := &biftRig{}
	leave := func(how string) func(wire.RouterID, wire.Message) {
		return func(to wire.RouterID, m wire.Message) {
			d := m.(*wire.Data)
			r.log = append(r.log, fmt.Sprintf("%s %d ttl %d bits %x tunnel %v encap %v", how, to, d.TTL, d.Bits, d.TunnelTo, d.Encap))
		}
	}
	migp := &logMIGP{relay: leave("relay"), inject: func() { r.log = append(r.log, "inject") }}
	r.o = newOverlay(Config{
		Router: 1, Domain: biftSelf,
		LookupGroup: func(g addr.Addr) (bgp.Entry, bool) {
			return bgp.Entry{Route: wire.Route{Origin: wire.DomainID(g & 0xff)}, NextHop: 7}, true
		},
		LookupUnicast:     rib.lookup,
		UnicastGeneration: func() uint64 { return rib.gen },
		Internal:          func(id wire.RouterID) bool { return id >= 100 },
		SendPeer:          leave("peer"),
		MIGP:              migp,
		DomainAddr:        rib.domainAddr,
		SourceDomain: func(s addr.Addr) (wire.DomainID, bool) {
			return wire.DomainID(s >> 8 & 0xffff), s != 0
		},
		Store: NewStore(),
	}, mode)
	return r
}

type logMIGP struct {
	stubMIGP
	relay  func(wire.RouterID, wire.Message)
	inject func()
}

func (m *logMIGP) RelayToBorder(to wire.RouterID, msg wire.Message) { m.relay(to, msg) }
func (m *logMIGP) Inject(*wire.Data) bool                           { m.inject(); return true }

// ribScript drives two overlays of one mode over one RIB — got as it is,
// want through the oracle of the per-packet lookups its table replaced —
// through steps random route changes, each followed by a packet that packet
// delivers to both with the TTL it reports, and returns the first
// difference in what left the two routers or in their counters. With
// sabotage set, halfway through every route moves to another next hop
// without a generation bump, between two packets that read every row
// (every set).
func ribScript(seed int64, steps int, sabotage bool, mode string,
	packet func(rng *rand.Rand, got, want *overlay, every bool) (what string, ttl uint8, err error)) error {
	rng := rand.New(rand.NewSource(seed))
	rib := &ribStub{clk: simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)), routes: map[wire.DomainID]stubRoute{}}
	// More next hops than forwardBits sizes its slab for; three are sibling borders.
	hops := []wire.RouterID{7, 8, 9, 10, 11, 12, 13, 14, 103, 104, 105}
	announce := func(d wire.DomainID, lifetime time.Duration) {
		rt := stubRoute{nextHop: hops[rng.Intn(len(hops))]}
		if lifetime > 0 {
			rt.expireUnix = uint64(rib.clk.Now().Add(lifetime).Unix())
		}
		rib.set(d, rt)
	}
	for d := wire.DomainID(1); d <= biftDomains; d++ {
		if rng.Intn(4) > 0 {
			announce(d, 0)
		}
	}
	got, want := newBIFTRig(rib, mode), newBIFTRig(rib, mode)
	send := func(step int, every bool) error {
		what, ttl, err := packet(rng, got.o, want.o, every)
		if err != nil {
			return fmt.Errorf("step %d, %s: %v", step, what, err)
		}
		if !slices.Equal(got.log, want.log) {
			return fmt.Errorf("step %d, %s:\n table  %q\n oracle %q", step, what, got.log, want.log)
		}
		for _, line := range got.log {
			// Across a peering as through the interior: the next router
			// spends the hop's TTL, none is spent here.
			if line != "inject" && !strings.Contains(line, fmt.Sprintf(" ttl %d ", ttl)) {
				return fmt.Errorf("step %d: %q left with another TTL than the %d it came with", step, line, ttl)
			}
		}
		if g, w := got.o.Stats(), want.o.Stats(); g != w {
			return fmt.Errorf("step %d, %s: Stats %+v, oracle %+v", step, what, g, w)
		}
		got.log, want.log = got.log[:0], want.log[:0]
		return nil
	}
	for step := 0; step < steps; step++ {
		switch d := wire.DomainID(1 + rng.Intn(biftDomains)); rng.Intn(8) {
		case 0, 1: // next-hop move, or a fresh announcement
			announce(d, 0)
		case 2: // withdrawal
			if _, ok := rib.routes[d]; ok {
				rib.drop(d)
			}
		case 3: // a route with a lifetime
			announce(d, time.Duration(30+rng.Intn(60))*time.Second)
		case 4: // time passes: lifetimes run out with no best change
			rib.clk.RunFor(time.Duration(20+rng.Intn(40)) * time.Second)
		case 5: // the sweep drops what ran out
			for _, d := range rib.domains() {
				if rib.expired(rib.routes[d]) {
					rib.drop(d)
				}
			}
		case 6: // forwarding-process crash
			got.o.Reset()
			want.o.Reset()
		}
		if sabotage && step == steps/2 {
			if err := send(step, true); err != nil { // every row warm
				return err
			}
			rib.stale = true
			for _, d := range rib.domains() {
				rt := rib.routes[d]
				rt.nextHop = hops[(slices.Index(hops, rt.nextHop)+1)%len(hops)]
				rib.set(d, rt)
			}
			rib.stale = false
			if err := send(step, true); err != nil {
				return err
			}
		}
		if err := send(step, false); err != nil {
			return err
		}
	}
	return nil
}

// bitsPacket is a BIER script's packet: a random bitstring, delivered as a
// transit router delivers one.
func bitsPacket(rng *rand.Rand, got, want *overlay, every bool) (string, uint8, error) {
	bs := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	if !every {
		bs = make([]uint64, rng.Intn(6))      // 0 words: the empty string
		for w := range bs[:(len(bs)*3+3)/4] { // the rest stay zero: trailing words
			bs[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		if len(bs) > 0 && rng.Intn(2) == 0 {
			bs[0] |= 1 << biftSelf
		}
	}
	d := &wire.Data{Group: addr.MakeAddr(224, 1, 0, 1), TTL: 16, Bits: bs, Payload: []byte("x")}
	sent := slices.Clone(bs)
	got.deliverBits(d)
	oracleDeliverBits(want, d)
	if !slices.Equal(bs, sent) {
		return fmt.Sprintf("bits %x", sent), d.TTL, fmt.Errorf("the inbound bitstring was written to: %x", bs)
	}
	return fmt.Sprintf("bits %x", bs), d.TTL, nil
}

// tunnelPacket is a map-and-encap script's packet: the root's fan-out of a
// packet to a random member set, or a tunnel — an egress copy or a climb
// toward a random group's root — arriving from a peer; one in four has no
// TTL left to cross a peering with. every is both: a fan-out to every
// domain, then a tunnel to each one's anchor address.
func tunnelPacket(rng *rand.Rand, got, want *overlay, every bool) (string, uint8, error) {
	src := addr.MakeAddr(10, 0, byte(1+rng.Intn(biftDomains)), 9) // any domain's host, maybe a member
	d := &wire.Data{Group: addr.MakeAddr(224, 1, 0, byte(biftSelf)), Source: src, TTL: 16, Payload: []byte("x")}
	if !every && rng.Intn(4) == 0 {
		d.TTL = 1
	}
	if every || rng.Intn(3) == 0 {
		st := NewStore()
		for m := wire.DomainID(1); m <= biftDomains+8; m++ { // the last 8 name no anchor
			if every || rng.Intn(5) == 0 {
				st.Add(d.Group, m)
			}
		}
		got.cfg.Store, want.cfg.Store = st, st
		injectHere := rng.Intn(2) == 0
		got.rootReplicate(d, injectHere)
		oracleRootReplicate(want, d, injectHere)
		if !every {
			return fmt.Sprintf("fan-out of %v to %v", d.Source, st.AppendMembers(nil, d.Group)), d.TTL, nil
		}
	}
	for m := wire.DomainID(1); m <= biftDomains+8; m++ {
		ta, _ := got.cfg.DomainAddr(m)
		if !every {
			ta, _ = got.cfg.DomainAddr(wire.DomainID(1 + rng.Intn(biftDomains+8)))
		}
		cp := *d
		cp.TunnelTo, cp.Encap = ta, rng.Intn(2) == 0
		cp.Group = addr.MakeAddr(224, 1, 0, byte(1+rng.Intn(biftDomains))) // climbs land here, or go on
		got.Deliver(bgmp.PeerTarget(7), &cp)
		oracleDeliverTunnel(want, &cp)
		if !every {
			return fmt.Sprintf("tunnel to %v encap %v for %v", cp.TunnelTo, cp.Encap, cp.Group), d.TTL, nil
		}
	}
	return "fan-out to every domain, a tunnel to each", d.TTL, nil
}

// TestBIFTMatchesPerPacketLookup holds the forwarding table to the
// per-packet derivation it replaced, for both its keys: BIER's split of a
// bitstring by the bit index, and map-and-encap's fan-out by the bit index
// and tunnel hops by the tunnel index. Over random next-hop moves,
// withdrawals, re-announcements, sibling-border next hops, routes whose
// lifetime runs out between two packets and crashes, every packet must leave
// both routers as the same copies — target, TTL as it came, trimmed bits,
// tunnel address and encap mark — in the same order, with the same header
// bytes and counters. Skipping the generation bump of a route change must
// make it fail.
func TestBIFTMatchesPerPacketLookup(t *testing.T) {
	for _, tc := range []struct {
		mode   string
		packet func(*rand.Rand, *overlay, *overlay, bool) (string, uint8, error)
	}{{BIERName, bitsPacket}, {MapEncapName, tunnelPacket}} {
		for seed := int64(1); seed <= 24; seed++ {
			if err := ribScript(seed, 300, false, tc.mode, tc.packet); err != nil {
				t.Errorf("%s seed %d: %v", tc.mode, seed, err)
			}
			if err := ribScript(seed, 300, true, tc.mode, tc.packet); err == nil {
				t.Errorf("%s seed %d: next hops moved without a generation bump and nothing differed", tc.mode, seed)
			}
		}
	}
}

// TestBIFTBounds pins what the table keeps, under both keys: no entry for a
// destination that names no domain or has no route, none for a route with a
// lifetime, none without a generation to hold it to, and nothing after Reset.
func TestBIFTBounds(t *testing.T) {
	rib := &ribStub{clk: simclock.NewSim(time.Unix(1000, 0)), routes: map[wire.DomainID]stubRoute{
		3: {nextHop: 7},
		9: {nextHop: 8, expireUnix: 2000},
	}}
	r := newBIFTRig(rib, BIERName)
	tunnels := func() {
		for _, d := range []wire.DomainID{3, 9, 20} {
			ta, _ := rib.domainAddr(d)
			r.o.deliverTunnel(&wire.Data{TTL: 16, TunnelTo: ta, Encap: true})
		}
	}
	r.o.deliverBits(&wire.Data{TTL: 16, Bits: []uint64{1<<3 | 1<<9 | 1<<20, 0, 1 << 60}}) // 20 unrouted, 188 no domain
	tunnels()
	if len(r.o.bift) != 4 || !r.o.bift[3].kept {
		t.Errorf("bift = %+v, want exactly the entry for domain 3", r.o.bift)
	}
	if ta, _ := rib.domainAddr(3); len(r.o.tunnels) != 1 || r.o.tunnels[ta] == nil {
		t.Errorf("tunnels = %v, want exactly the entry for domain 3's anchor", r.o.tunnels)
	}
	if len(r.log) != 4 {
		t.Errorf("log = %q, want one copy and one tunnel each toward domains 3 and 9", r.log)
	}
	r.o.Reset()
	if r.o.bift != nil || r.o.tunnels != nil {
		t.Error("Reset kept the table")
	}
	r.o.cfg.UnicastGeneration = nil
	r.o.deliverBits(&wire.Data{TTL: 16, Bits: []uint64{1 << 3}})
	tunnels()
	if r.o.bift != nil || r.o.tunnels != nil {
		t.Error("an overlay with no generation to read cached a next hop")
	}
}

// benchOverlay is a mode overlay at router 1 of domain 1 whose RIB routes
// every domain's anchor address to one of six peers, under one generation.
// A lookup takes a lock, as core's speaker does, and so does Internal, as
// core's router does.
func benchOverlay(mode string) *overlay {
	var speaker, router sync.Mutex
	return newOverlay(Config{
		Router: 1, Domain: 1,
		LookupUnicast: func(a addr.Addr) (bgp.Entry, bool) {
			speaker.Lock()
			defer speaker.Unlock()
			d := uint32(a >> 8 & 0xffff)
			return bgp.Entry{Route: wire.Route{Origin: wire.DomainID(d)}, NextHop: wire.RouterID(100 + d%6)}, true
		},
		UnicastGeneration: func() uint64 { return 1 },
		Internal: func(wire.RouterID) bool {
			router.Lock()
			defer router.Unlock()
			return false
		},
		SendPeer:   func(wire.RouterID, wire.Message) {},
		MIGP:       &stubMIGP{},
		DomainAddr: func(d wire.DomainID) (addr.Addr, bool) { return addr.MakeAddr(10, byte(d>>8), byte(d), 0), true },
		Store:      NewStore(),
	}, mode)
}

// BenchmarkForwardBits times the root's split of one 4-word bitstring with
// 30 bits set across 6 next hops, every BIFT entry warm.
func BenchmarkForwardBits(b *testing.B) {
	o := benchOverlay(BIERName)
	d := &wire.Data{Group: addr.MakeAddr(224, 1, 0, 1), TTL: 16, Bits: make([]uint64, 4), Payload: make([]byte, 64)}
	for i := uint32(0); i < 30; i++ {
		setBit(d.Bits, 2+i*7) // 7 and 6 coprime: all six next hops
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.forwardBits(d)
	}
}

// BenchmarkTunnelHop times a transit router's hop of one map-and-encap
// tunnel: from the warm tunnel index, and by the per-packet lookup and
// Egress.Resolve it replaced. Uncontended, as here, the locks those take
// cost little; core's longest match over a real RIB costs more.
func BenchmarkTunnelHop(b *testing.B) {
	for _, bc := range []struct {
		name string
		hop  func(*overlay, *wire.Data)
	}{{"table", (*overlay).deliverTunnel}, {"lookup", oracleDeliverTunnel}} {
		b.Run(bc.name, func(b *testing.B) {
			o := benchOverlay(MapEncapName)
			d := &wire.Data{Group: addr.MakeAddr(224, 1, 0, 1), TTL: 16, TunnelTo: addr.MakeAddr(10, 0, 42, 0),
				Encap: true, Payload: make([]byte, 64)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.hop(o, d)
			}
		})
	}
}

// TestTableSharedAcrossGoroutines delivers tunnels and bitstrings from
// several goroutines at once while the unicast generation moves under
// them: every hop is counted once, and -race sees the table only under
// overlay.mu.
func TestTableSharedAcrossGoroutines(t *testing.T) {
	var gen atomic.Uint64
	o := benchOverlay(MapEncapName)
	o.cfg.UnicastGeneration = gen.Load
	const workers, packets = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				if i%50 == 0 {
					gen.Add(1)
				}
				o.deliverTunnel(&wire.Data{TTL: 16, TunnelTo: addr.MakeAddr(10, 0, byte(2+(w+i)%40), 0)})
				o.forwardBits(&wire.Data{TTL: 16, Bits: []uint64{1<<byte(2+i%60) | 1<<byte(3+w)}})
			}
		}(w)
	}
	wg.Wait()
	if got, want := o.Stats().PeerSends, uint64(workers*packets*2); got < want {
		t.Errorf("PeerSends = %d, want at least %d: a tunnel and a bit's copy per packet", got, want)
	}
}
