package dataplane

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/wire"
)

// overlay is the machinery shared by the two stateless backends. Both keep
// zero per-group forwarding entries at transit domains: membership lives
// in the root domain's Store (fed by MemberReport messages that transit
// routers relay without recording), and per-packet headers — a unicast
// tunnel address or a BIER bitstring — carry the forwarding decision.
// The backends differ only in how the root fans out: BIER stamps one
// bitstring and lets transit routers split it per next hop; map-and-encap
// originates one tunnel per member domain.
type overlay struct {
	cfg Config
	// eg is bgmp's next-hop rule and border egress: where a RIB entry
	// points and how a message leaves this router are not re-derived here.
	eg   bgmp.Egress
	mode string // BIERName or MapEncapName

	mu sync.Mutex
	// pending counts interior joins awaiting a G-RIB route toward the
	// root, flushed by RouteChanged — the analogue of bgmp's orphans.
	// guarded by mu
	pending map[addr.Addr]int
	stats   Stats // guarded by mu
	// The forwarding table, one fill rule (wayLocked) under two keys: bift,
	// the bit index (RFC 8279 §6.4), by domain ID, and tunnels by anchor
	// address. Stale entries are refilled in place, never added again.
	bift    []fwdEntry              // guarded by mu
	tunnels map[addr.Addr]*fwdEntry // guarded by mu
}

// fwdEntry is the way a copy toward an anchor address leaves this router and
// the unicast generation it was looked up under; kept is false in one unfilled.
type fwdEntry struct {
	to   bgmp.Target
	here bool // the route ends in this domain: a tunnel lands here
	kept bool
	gen  uint64
}

// NewBIER returns the BIER-style bitstring backend.
func NewBIER(cfg Config) Backend { return newOverlay(cfg, BIERName) }

// NewMapEncap returns the map-and-encap backend.
func NewMapEncap(cfg Config) Backend { return newOverlay(cfg, MapEncapName) }

func newOverlay(cfg Config, mode string) *overlay {
	return &overlay{cfg: cfg, mode: mode, pending: map[addr.Addr]int{},
		eg: bgmp.Egress{Router: cfg.Router, Domain: cfg.Domain, Internal: cfg.Internal,
			SendPeer: cfg.SendPeer, MIGP: cfg.MIGP, Obs: cfg.Obs}}
}

func (o *overlay) Name() string { return o.mode }

// HasForwardingState reports false always: holding no per-group forwarding
// entries is the point of these backends. (Root-domain overlay membership
// lives in the Store, not in the routers.)
func (o *overlay) HasForwardingState(g addr.Addr) bool { return false }

// Reset models a forwarding-process crash. Pending joins and counters are
// volatile; the Store is overlay state and survives, which is exactly the
// crash-resilience argument for moving membership out of routers.
func (o *overlay) Reset() {
	o.mu.Lock()
	o.pending = map[addr.Addr]int{}
	o.stats = Stats{}
	o.bift, o.tunnels = nil, nil
	o.mu.Unlock()
}

func (o *overlay) Stats() Stats {
	o.mu.Lock()
	st := o.stats
	o.mu.Unlock()
	st.GroupEntries = 0
	st.OverlayEntries = o.cfg.Store.Entries()
	return st
}

// count adds delta to the comparison counters.
func (o *overlay) count(delta Stats) {
	o.mu.Lock()
	o.countLocked(delta)
	o.mu.Unlock()
}

func (o *overlay) countLocked(delta Stats) {
	o.stats.PeerSends += delta.PeerSends
	o.stats.Relays += delta.Relays
	o.stats.Encaps += delta.Encaps
	o.stats.HeaderBytes += delta.HeaderBytes
}

// ---------------------------------------------------------- control plane

// LocalJoin reports the domain's membership toward the group's root. With
// no route yet, the join is parked and flushed by RouteChanged.
func (o *overlay) LocalJoin(g addr.Addr) {
	if !o.report(g, o.cfg.Domain, false, nil) {
		o.mu.Lock()
		o.pending[g]++
		o.mu.Unlock()
	}
}

// LocalLeave retracts the membership.
func (o *overlay) LocalLeave(g addr.Addr) {
	o.mu.Lock()
	if o.pending[g] > 0 {
		o.pending[g]--
		if o.pending[g] == 0 {
			delete(o.pending, g)
		}
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
	o.report(g, o.cfg.Domain, true, nil)
}

// report applies one membership assertion/retraction of domain dom at this
// router: recorded in the Store when this is a root-domain border, else sent
// one hop toward the root, statelessly. m is the report as received, nil for
// one originating here (built only if it has to travel). It returns false
// when no G-RIB route exists yet.
func (o *overlay) report(g addr.Addr, dom wire.DomainID, leave bool, m *wire.MemberReport) bool {
	if o.mode == BIERName && dom > wire.MaxDataBit {
		return true // no bitstring could carry it: refused, not parked
	}
	ent, ok := o.cfg.LookupGroup(g)
	if !ok {
		return false
	}
	next, inRoot := o.eg.Resolve(ent)
	switch {
	case !inRoot:
		if m == nil {
			m = &wire.MemberReport{Group: g, Domain: dom, Leave: leave}
		}
		o.eg.Send(next, m)
	case leave:
		o.cfg.Store.Remove(g, dom)
	default:
		o.cfg.Store.Add(g, dom)
	}
	return true
}

// HandleControl relays a MemberReport toward the root or records it; with no
// route toward the root it is dropped, the member will re-report.
func (o *overlay) HandleControl(src bgmp.Target, msg wire.Message) {
	if m, ok := msg.(*wire.MemberReport); ok {
		o.report(m.Group, m.Domain, m.Leave, m)
	}
}

// RouteChanged flushes joins that were waiting for a route covered by p.
// The overlay sends fresh MemberReports rather than re-parenting state, so
// ctx is unused here; the reports root their own causality.
func (o *overlay) RouteChanged(p addr.Prefix, ctx wire.TraceContext) {
	o.mu.Lock()
	var flush []addr.Addr
	for g, n := range o.pending {
		if n > 0 && p.Contains(g) {
			flush = append(flush, g)
		}
	}
	sort.Slice(flush, func(i, j int) bool { return flush[i] < flush[j] })
	counts := make([]int, len(flush))
	for i, g := range flush {
		counts[i] = o.pending[g]
	}
	o.mu.Unlock()
	for i, g := range flush {
		for n := 0; n < counts[i]; n++ {
			if !o.report(g, o.cfg.Domain, false, nil) {
				return // still no route; keep the rest parked too
			}
			o.mu.Lock()
			o.pending[g]--
			if o.pending[g] == 0 {
				delete(o.pending, g)
			}
			o.mu.Unlock()
		}
	}
}

// ------------------------------------------------------------- data plane

// Deliver dispatches on the packet's headers: bitstring packets and
// tunnels have their own forwarding rules; plain packets are classified by
// where they are relative to the group's root domain.
func (o *overlay) Deliver(src bgmp.Target, d *wire.Data) {
	if d.TTL == 0 {
		return
	}
	switch {
	case len(d.Bits) > 0:
		o.deliverBits(d)
	case d.TunnelTo != 0:
		o.deliverTunnel(d)
	case d.Encap && src.MIGP && src.Router != 0:
		// Interior-RPF handoff from a sibling border: we are the expected
		// entry, inject natively.
		o.eg.Inject(d)
	default:
		o.deliverPlain(src, d)
	}
}

// deliverPlain handles a packet with no backend header yet: a fresh
// interior-origin packet, or (defensively) a native packet from a peer.
func (o *overlay) deliverPlain(src bgmp.Target, d *wire.Data) {
	ent, ok := o.cfg.LookupGroup(d.Group)
	if !ok {
		return // no root known: drop
	}
	next, inRoot := o.eg.Resolve(ent)
	interiorOrigin := src.MIGP && src.Router == 0
	if inRoot {
		// Only one border of the root domain may run root replication per
		// packet. For interior-origin packets every border sees a copy;
		// the canonical one is the border holding the originated route.
		if interiorOrigin && !ent.Local {
			return
		}
		// Interior members (and the source's own domain) already saw the
		// packet natively when it originated here.
		o.rootReplicate(d, !interiorOrigin)
		return
	}
	if interiorOrigin && next.MIGP {
		// Only the best exit exports the packet; when the route points at
		// a sibling border the packet is not ours to forward.
		return
	}
	// Tunnel toward the root: the source domain's one export, or a native
	// packet that reached a transit domain (possible transiently when
	// backends are mixed or routes flap), which is not an encapsulation
	// this domain originated.
	ta, ok := o.cfg.DomainAddr(wire.DomainID(ent.Route.Origin))
	if !ok {
		return
	}
	cp := *d
	cp.TunnelTo = ta
	if interiorOrigin {
		o.count(Stats{Encaps: 1})
	}
	o.deliverTunnel(&cp)
}

// deliverTunnel forwards or terminates a unicast tunnel. Egress copies
// (root → member, marked Encap) decapsulate where they land; climb copies
// (source → root, unmarked) may land short of the root when the G-RIB
// advertised only an aggregate — MASC ancestors aggregate their children's
// ranges (§4.2), so the tunnel target is re-resolved against this domain's
// more specific route and the climb continues.
func (o *overlay) deliverTunnel(d *wire.Data) {
	gen := o.generation()
	o.mu.Lock()
	e, ok := o.tunnelLocked(d.TunnelTo, gen)
	if ok && !e.here {
		o.countLocked(hopStats(e.to, d, EncapHeaderBytes))
	}
	o.mu.Unlock()
	if !ok {
		return
	}
	if !e.here {
		o.send(e.to, d)
		return
	}
	cp := *d
	cp.Bits, cp.TunnelTo, cp.Encap = nil, 0, false // all of them: Inject copies what has one
	if d.Encap {
		// The root's egress copy reached the member domain.
		o.injectLocal(&cp)
		return
	}
	ent, ok := o.cfg.LookupGroup(d.Group)
	if !ok {
		return
	}
	if _, inRoot := o.eg.Resolve(ent); inRoot {
		o.rootReplicate(&cp, true)
		return
	}
	// Aggregation ancestor: continue toward the specific route's origin.
	ta, ok := o.cfg.DomainAddr(ent.Route.Origin)
	if !ok || ta == d.TunnelTo {
		return // no more specific route: drop
	}
	cp.TunnelTo = ta
	o.deliverTunnel(&cp)
}

// rootReplicate is the root domain's fan-out: read the egress member set
// off the overlay store and emit per-backend copies. injectLocally
// controls whether a local membership is served here (false when the
// packet originated in this domain and the interior already has it).
func (o *overlay) rootReplicate(d *wire.Data, injectLocally bool) {
	members := o.cfg.Store.Members(d.Group)
	// The source's own domain delivered natively: like this one, no copy.
	srcDom, haveSrcDom := o.cfg.SourceDomain(d.Source)
	if !haveSrcDom {
		srcDom = o.cfg.Domain // nothing further to skip
	} else if srcDom == o.cfg.Domain {
		injectLocally = false
	}
	if _, local := slices.BinarySearch(members, o.cfg.Domain); local && injectLocally {
		o.injectLocal(d)
	}
	if o.mode == BIERName {
		if bs := makeBits(members, o.cfg.Domain, srcDom); bs != nil {
			cp := *d
			cp.TunnelTo = 0
			cp.Bits = bs
			o.count(Stats{Encaps: 1})
			o.forwardBits(&cp)
		}
		return
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
		cp.Encap = true // egress copy: decapsulate where the tunnel lands
		o.count(Stats{Encaps: 1})
		o.deliverTunnel(&cp)
	}
}

// deliverBits handles a bitstring packet: serve the local bit, then split
// the remainder across unicast next hops.
func (o *overlay) deliverBits(d *wire.Data) {
	if hasBit(d.Bits, uint32(o.cfg.Domain)) {
		o.injectLocal(d) // Inject and Encap strip the bitstring
	}
	o.forwardBits(d)
}

// forwardBits is the BIER forwarding rule (RFC 8279 §6.5): walk the set
// bits other than this domain's own, ascending, ask the BIFT for each one's
// next hop, and send every next hop — in order of first occurrence — one
// copy carrying only the bits it serves.
func (o *overlay) forwardBits(d *wire.Data) {
	words, self := len(d.Bits), uint32(o.cfg.Domain)
	n := 0
	for _, w := range d.Bits {
		n += bits.OnesCount64(w)
	}
	if n == 0 || n == 1 && hasBit(d.Bits, self) {
		return // nothing but the bit deliverBits served
	}
	gen := o.generation()
	// One slab holds every outgoing string, next hop k's at k*words; a
	// packet's next hops are bounded by its bits and the router's peers.
	tos := make([]bgmp.Target, 0, 8)
	slab := make([]uint64, min(n, cap(tos))*words)
	o.mu.Lock()
	for wi, w := range d.Bits {
		for ; w != 0; w &= w - 1 {
			dom := uint32(wi*64 + bits.TrailingZeros64(w))
			if dom == self {
				continue
			}
			e, ok := o.bitLocked(dom, gen)
			if !ok {
				continue
			}
			k := slices.Index(tos, e.to)
			if k < 0 {
				k = len(tos)
				tos = append(tos, e.to)
				if len(slab) < len(tos)*words {
					slab = append(slab, make([]uint64, words)...) // a ninth next hop
				}
			}
			slab[k*words+wi] |= w & -w
		}
	}
	o.mu.Unlock()
	for k, to := range tos {
		cp := *d
		cp.Bits = trimBits(slab[k*words : (k+1)*words])
		o.count(hopStats(to, &cp, BIERHeaderBytes(len(cp.Bits))))
		o.send(to, &cp)
	}
}

// generation reads the unicast generation, before any lookup it will stamp.
func (o *overlay) generation() uint64 {
	if o.cfg.UnicastGeneration == nil {
		return 0 // and nothing is kept
	}
	return o.cfg.UnicastGeneration()
}

// wayLocked is the table's fill rule: e stands while gen, the unicast
// generation, is the one it was filled under; else it is derived anew from
// the route toward anchor address ta() — its next hop, and whether it ends
// here — and kept if there is a generation and no lifetime, so that a kept e
// is what LookupUnicast would give now. False, e untouched: no route.
func (o *overlay) wayLocked(e *fwdEntry, ta func() (addr.Addr, bool), gen uint64) bool {
	if e.kept && e.gen == gen {
		return true
	}
	a, ok := ta()
	if !ok {
		return false
	}
	ue, ok := o.cfg.LookupUnicast(a)
	if !ok {
		return false
	}
	*e = fwdEntry{to: o.eg.Toward(ue.NextHop), gen: gen, kept: o.cfg.UnicastGeneration != nil && ue.Route.ExpireUnix == 0}
	_, e.here = o.eg.Resolve(ue)
	return true
}

// bitLocked reads the table by domain, grown to dom only to keep its entry.
func (o *overlay) bitLocked(dom uint32, gen uint64) (e fwdEntry, ok bool) {
	if int(dom) < len(o.bift) {
		e = o.bift[dom]
	}
	if ok = o.wayLocked(&e, func() (addr.Addr, bool) { return o.cfg.DomainAddr(wire.DomainID(dom)) }, gen); ok && e.kept {
		if int(dom) >= len(o.bift) {
			o.bift = append(o.bift, make([]fwdEntry, int(dom)+1-len(o.bift))...)
		}
		o.bift[dom] = e
	}
	return e, ok
}

// tunnelLocked reads the table by anchor address, refilling through the
// pointer: Go grows a full small map on any assignment, even to a key it holds.
func (o *overlay) tunnelLocked(ta addr.Addr, gen uint64) (e fwdEntry, ok bool) {
	p := o.tunnels[ta]
	if p != nil {
		e = *p
	}
	if ok = o.wayLocked(&e, func() (addr.Addr, bool) { return ta, true }, gen); ok && e.kept {
		if p == nil {
			if o.tunnels == nil {
				o.tunnels = map[addr.Addr]*fwdEntry{}
			}
			p = new(fwdEntry)
			o.tunnels[ta] = p
		}
		*p = e
	}
	return e, ok
}

// injectLocal delivers a decapsulated packet to the domain interior,
// falling back to the §5.3 border-to-border encapsulation when interior
// RPF rejects this entry point.
func (o *overlay) injectLocal(d *wire.Data) {
	if exp := o.eg.Inject(d); exp != 0 {
		o.count(Stats{Encaps: 1})
		o.eg.Encap(exp, d)
	}
}

// send moves d a unicast hop toward t: relayed as is through the interior to
// a sibling border, or across the peering, which costs a TTL (spent by the
// receiver, see Egress.ToPeer).
func (o *overlay) send(t bgmp.Target, d *wire.Data) {
	if t.MIGP {
		o.eg.Send(t, d)
	} else {
		o.eg.ToPeer(t.Router, d)
	}
}

// hopStats is what send(t, d) adds to the counters, headerBytes being this
// backend's header on a peering hop, which ToPeer drops with no TTL to spend.
func hopStats(t bgmp.Target, d *wire.Data, headerBytes int) (s Stats) {
	if t.MIGP {
		s.Relays = 1
	} else if d.TTL > 1 {
		s.PeerSends, s.HeaderBytes = 1, uint64(headerBytes)
	}
	return s
}

var _ Backend = (*overlay)(nil)
