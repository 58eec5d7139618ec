package dataplane

import (
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
	o.stats.PeerSends += delta.PeerSends
	o.stats.Relays += delta.Relays
	o.stats.Encaps += delta.Encaps
	o.stats.HeaderBytes += delta.HeaderBytes
	o.mu.Unlock()
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
	ue, ok := o.cfg.LookupUnicast(d.TunnelTo)
	if !ok {
		return
	}
	next, here := o.eg.Resolve(ue)
	if !here {
		o.hop(next, d, EncapHeaderBytes)
		return
	}
	cp := *d
	cp.TunnelTo = 0
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

// rootReplicate is the root domain's fan-out: compute the egress member
// set from the overlay store and emit per-backend copies. injectLocally
// controls whether a local membership is served here (false when the
// packet originated in this domain and the interior already has it).
func (o *overlay) rootReplicate(d *wire.Data, injectLocally bool) {
	members := o.cfg.Store.Members(d.Group)
	srcDom, haveSrcDom := o.cfg.SourceDomain(d.Source)
	egress := make([]wire.DomainID, 0, len(members))
	local := false
	for _, m := range members {
		switch {
		case m == o.cfg.Domain:
			local = true
		case haveSrcDom && m == srcDom:
			// The source's own domain delivered natively at origination.
		default:
			egress = append(egress, m)
		}
	}
	if local && injectLocally && !(haveSrcDom && srcDom == o.cfg.Domain) {
		o.injectLocal(d)
	}
	if len(egress) == 0 {
		return
	}
	if o.mode == BIERName {
		cp := *d
		cp.TunnelTo = 0
		cp.Bits = makeBits(egress)
		o.count(Stats{Encaps: 1})
		o.forwardBits(&cp)
		return
	}
	for _, m := range egress {
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
	bits := append([]uint64(nil), d.Bits...)
	if clearBit(bits, uint32(o.cfg.Domain)) {
		cp := *d
		cp.Bits = nil
		o.injectLocal(&cp)
	}
	if anyBit(bits) {
		cp := *d
		cp.Bits = bits
		o.forwardBits(&cp)
	}
}

// forwardBits buckets the set bits by unicast next hop and sends one copy
// per bucket, each carrying only the bits that hop serves — the BIER
// forwarding rule, using nothing but the unicast RIB.
func (o *overlay) forwardBits(d *wire.Data) {
	type bucket struct {
		to   bgmp.Target
		bits []uint64
	}
	// Sized for the common fan-out: the distinct next hops of one packet
	// are bounded by the router's peer count, typically a handful.
	order := make([]wire.RouterID, 0, 8)
	buckets := make(map[wire.RouterID]*bucket, 8)
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
			bk = &bucket{to: o.eg.Toward(ue.NextHop), bits: make([]uint64, len(d.Bits))}
			buckets[ue.NextHop] = bk
			order = append(order, ue.NextHop)
		}
		setBit(bk.bits, dom)
	}
	for _, nh := range order {
		bk := buckets[nh]
		cp := *d
		cp.Bits = trimBits(bk.bits)
		o.hop(bk.to, &cp, BIERHeaderBytes(len(cp.Bits)))
	}
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

// hop moves one copy of d a unicast hop toward t: relayed as is through the
// interior to a sibling border, or across the peering, which spends a TTL
// and headerBytes of this backend's header.
func (o *overlay) hop(t bgmp.Target, d *wire.Data, headerBytes int) {
	if t.MIGP {
		o.count(Stats{Relays: 1})
		o.eg.Send(t, d)
	} else if o.eg.ToPeer(t.Router, d) {
		o.count(Stats{PeerSends: 1, HeaderBytes: uint64(headerBytes)})
	}
}

var (
	_ Backend = (*overlay)(nil)
)
