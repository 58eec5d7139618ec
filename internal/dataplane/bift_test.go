package dataplane

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
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
		o.hop(bk.to, &cp, BIERHeaderBytes(len(cp.Bits)))
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

// biftRig is one BIER overlay at router 1 of domain biftSelf over rib,
// logging everything that leaves it; routers >= 100 are sibling borders.
type biftRig struct {
	o   *overlay
	log []string
}

func newBIFTRig(rib *ribStub) *biftRig {
	r := &biftRig{}
	leave := func(how string) func(wire.RouterID, wire.Message) {
		return func(to wire.RouterID, m wire.Message) {
			d := m.(*wire.Data)
			r.log = append(r.log, fmt.Sprintf("%s %d ttl %d bits %x", how, to, d.TTL, d.Bits))
		}
	}
	migp := &logMIGP{relay: leave("relay"), inject: func() { r.log = append(r.log, "inject") }}
	r.o = newOverlay(Config{
		Router: 1, Domain: biftSelf,
		LookupUnicast:     rib.lookup,
		UnicastGeneration: func() uint64 { return rib.gen },
		Internal:          func(id wire.RouterID) bool { return id >= 100 },
		SendPeer:          leave("peer"),
		MIGP:              migp,
		DomainAddr:        rib.domainAddr,
		Store:             NewStore(),
	}, BIERName)
	return r
}

type logMIGP struct {
	stubMIGP
	relay  func(wire.RouterID, wire.Message)
	inject func()
}

func (m *logMIGP) RelayToBorder(to wire.RouterID, msg wire.Message) { m.relay(to, msg) }
func (m *logMIGP) Inject(*wire.Data) bool                           { m.inject(); return true }

// biftScript drives a BIFT overlay and the oracle over one RIB through
// steps random route changes, each followed by a random bitstring packet,
// and returns the first difference in what left the two routers or in
// their counters. With sabotage set, halfway through every route moves to
// another next hop without a generation bump.
func biftScript(seed int64, steps int, sabotage bool) error {
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
	got, want := newBIFTRig(rib), newBIFTRig(rib)
	send := func(step int, bs []uint64) error {
		d := &wire.Data{Group: addr.MakeAddr(224, 1, 0, 1), TTL: 16, Bits: bs, Payload: []byte("x")}
		sent := slices.Clone(bs)
		got.o.deliverBits(d)
		oracleDeliverBits(want.o, d)
		if !slices.Equal(bs, sent) {
			return fmt.Errorf("step %d: the inbound bitstring was written to: %x, sent %x", step, bs, sent)
		}
		if !slices.Equal(got.log, want.log) {
			return fmt.Errorf("step %d, bits %x:\n BIFT   %q\n oracle %q", step, bs, got.log, want.log)
		}
		for _, line := range got.log {
			// Across a peering as through the interior: the next router
			// spends the hop's TTL, none is spent here.
			if line != "inject" && !strings.Contains(line, " ttl 16 ") {
				return fmt.Errorf("step %d: %q left with another TTL than the 16 it came with", step, line)
			}
		}
		if g, w := got.o.Stats(), want.o.Stats(); g != w {
			return fmt.Errorf("step %d: Stats %+v, oracle %+v", step, g, w)
		}
		got.log, want.log = got.log[:0], want.log[:0]
		return nil
	}
	every := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
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
			if err := send(step, every); err != nil { // every entry warm
				return err
			}
			rib.stale = true
			for _, d := range rib.domains() {
				rt := rib.routes[d]
				rt.nextHop = hops[(slices.Index(hops, rt.nextHop)+1)%len(hops)]
				rib.set(d, rt)
			}
			rib.stale = false
			if err := send(step, every); err != nil {
				return err
			}
		}
		bs := make([]uint64, rng.Intn(6))     // 0 words: the empty string
		for w := range bs[:(len(bs)*3+3)/4] { // the rest stay zero: trailing words
			bs[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		if len(bs) > 0 && rng.Intn(2) == 0 {
			bs[0] |= 1 << biftSelf
		}
		if err := send(step, bs); err != nil {
			return err
		}
	}
	return nil
}

// TestBIFTMatchesPerPacketLookup holds the BIFT-driven forwardBits to the
// per-packet derivation it replaced: over random next-hop moves,
// withdrawals, re-announcements, sibling-border next hops, routes whose
// lifetime runs out between two packets and crashes, every packet must
// leave both routers as the same copies — target, TTL as it came, trimmed bits — in
// the same order, with the same header bytes and counters. Skipping the
// generation bump of a route change must make it fail.
func TestBIFTMatchesPerPacketLookup(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		if err := biftScript(seed, 300, false); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := biftScript(seed, 300, true); err == nil {
			t.Errorf("seed %d: next hops moved without a generation bump and nothing differed", seed)
		}
	}
}

// TestBIFTBounds pins what the table keeps: no entry for a bit that names
// no domain or has no route, none for a route with a lifetime, none without
// a generation to hold it to, and nothing after Reset.
func TestBIFTBounds(t *testing.T) {
	rib := &ribStub{clk: simclock.NewSim(time.Unix(1000, 0)), routes: map[wire.DomainID]stubRoute{
		3: {nextHop: 7},
		9: {nextHop: 8, expireUnix: 2000},
	}}
	r := newBIFTRig(rib)
	r.o.deliverBits(&wire.Data{TTL: 16, Bits: []uint64{1<<3 | 1<<9 | 1<<20, 0, 1 << 60}}) // 20 unrouted, 188 no domain
	if len(r.o.bift) != 4 || !r.o.bift[3].ok {
		t.Errorf("bift = %+v, want exactly the entry for domain 3", r.o.bift)
	}
	if len(r.log) != 2 {
		t.Errorf("log = %q, want one copy each toward domains 3 and 9", r.log)
	}
	r.o.Reset()
	if r.o.bift != nil {
		t.Error("Reset kept the BIFT")
	}
	r.o.cfg.UnicastGeneration = nil
	r.o.deliverBits(&wire.Data{TTL: 16, Bits: []uint64{1 << 3}})
	if r.o.bift != nil {
		t.Error("an overlay with no generation to read cached a next hop")
	}
}

// BenchmarkForwardBits times the root's split of one 4-word bitstring with
// 30 bits set across 6 next hops, every BIFT entry warm.
func BenchmarkForwardBits(b *testing.B) {
	o := newOverlay(Config{
		Router: 1, Domain: 1,
		LookupUnicast: func(a addr.Addr) (bgp.Entry, bool) {
			d := uint32(a >> 8 & 0xffff)
			return bgp.Entry{Route: wire.Route{Origin: wire.DomainID(d)}, NextHop: wire.RouterID(100 + d%6)}, true
		},
		UnicastGeneration: func() uint64 { return 1 },
		Internal:          func(wire.RouterID) bool { return false },
		SendPeer:          func(wire.RouterID, wire.Message) {},
		MIGP:              &stubMIGP{},
		DomainAddr:        func(d wire.DomainID) (addr.Addr, bool) { return addr.MakeAddr(10, byte(d>>8), byte(d), 0), true },
		Store:             NewStore(),
	}, BIERName)
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
