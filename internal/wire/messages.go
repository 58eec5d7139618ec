package wire

import (
	"fmt"

	"mascbgmp/internal/addr"
)

// RouterID identifies a border router across the internetwork. IDs are
// assigned by configuration, like BGP router IDs.
type RouterID uint32

// DomainID identifies a domain (autonomous system) on the wire. It mirrors
// topology.DomainID but is pinned to 32 bits for encoding.
type DomainID uint32

// ---------------------------------------------------------------- BGP-lite

// Open starts a peering session, announcing the speaker's identity. It
// plays the role of BGP's OPEN message.
type Open struct {
	Router RouterID
	Domain DomainID
}

// Type implements Message.
func (*Open) Type() MsgType { return TypeOpen }

// AppendPayload implements Message.
func (m *Open) AppendPayload(b []byte) []byte {
	b = appendU32(b, uint32(m.Router))
	return appendU32(b, uint32(m.Domain))
}

// DecodePayload implements Message.
func (m *Open) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Router = RouterID(r.u32())
	m.Domain = DomainID(r.u32())
	return r.done()
}

// LivenessCtl is a BFD-style liveness probe (RFC 5880 in spirit). It rides
// its own fault-plane class, separate from session keepalives, so the
// fast-liveness detector and the hold-timer fallback fail independently.
type LivenessCtl struct {
	// Generation is the sender's session incarnation; probes from an
	// earlier incarnation are discarded on receipt.
	Generation uint32
	// IntervalUS advertises the sender's current transmit interval in
	// microseconds (the adaptive ramp from HoldTime/3 down to the floor).
	IntervalUS uint32
	// Multiplier is the sender's detect multiplier: the peer declares the
	// session dead after this many consecutive missed intervals.
	Multiplier uint8
	// Demand indicates the sender has quiesced to demand mode and probes
	// at the slow poll interval.
	Demand bool
}

// Type implements Message.
func (*LivenessCtl) Type() MsgType { return TypeLiveness }

// AppendPayload implements Message.
func (m *LivenessCtl) AppendPayload(b []byte) []byte {
	b = appendU32(b, m.Generation)
	b = appendU32(b, m.IntervalUS)
	b = append(b, m.Multiplier)
	var flags uint8
	if m.Demand {
		flags |= 0x01
	}
	return append(b, flags)
}

// DecodePayload implements Message.
func (m *LivenessCtl) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Generation = r.u32()
	m.IntervalUS = r.u32()
	m.Multiplier = r.u8()
	flags := r.u8()
	if r.err == nil && flags&^uint8(0x01) != 0 {
		return fmt.Errorf("wire: undefined liveness flags 0x%02x", flags)
	}
	m.Demand = flags&0x01 != 0
	return r.done()
}

// Table selects which logical routing table an Update affects — BGP-lite
// carries multiple route types per the multiprotocol extensions the paper
// builds on (§2).
type Table uint8

const (
	// TableUnicast is the ordinary unicast RIB.
	TableUnicast Table = iota
	// TableMRIB is the Multicast RIB used for RPF checks when multicast
	// and unicast topologies are incongruent.
	TableMRIB
	// TableGRIB is the Group RIB holding MASC-injected group routes that
	// map group prefixes to their root domains.
	TableGRIB
)

// NumTables is the number of defined tables: a Table at or past it names
// none, and the decoder rejects it.
const NumTables = int(TableGRIB) + 1

// String implements fmt.Stringer.
func (t Table) String() string {
	switch t {
	case TableUnicast:
		return "unicast"
	case TableMRIB:
		return "M-RIB"
	case TableGRIB:
		return "G-RIB"
	}
	return fmt.Sprintf("Table(%d)", uint8(t))
}

// Route is a single advertised route: a destination prefix plus the path
// attributes BGP-lite propagates.
type Route struct {
	// Prefix is the destination (for the G-RIB: a multicast group range).
	Prefix addr.Prefix
	// ASPath lists the domains the advertisement traversed, nearest
	// first. Loop detection rejects routes containing the local domain.
	ASPath []DomainID
	// Origin is the domain that injected the route: for group routes,
	// the root domain of the covered groups.
	Origin DomainID
	// ExpireUnix is the route's expiry as a Unix second, mirroring the
	// MASC lifetime of the underlying claim; zero means no expiry.
	ExpireUnix uint64
}

// Clone returns a deep copy of the route.
func (rt Route) Clone() Route {
	cp := rt
	cp.ASPath = append([]DomainID(nil), rt.ASPath...)
	return cp
}

// HasLoop reports whether d already appears in the AS path.
func (rt Route) HasLoop(d DomainID) bool {
	for _, h := range rt.ASPath {
		if h == d {
			return true
		}
	}
	return false
}

// Update advertises and withdraws routes in one logical table, like BGP's
// UPDATE with multiprotocol NLRI.
type Update struct {
	TraceCarrier
	Table     Table
	Withdrawn []addr.Prefix
	Routes    []Route
}

// Type implements Message.
func (*Update) Type() MsgType { return TypeUpdate }

// AppendPayload implements Message.
func (m *Update) AppendPayload(b []byte) []byte {
	b = append(b, byte(m.Table))
	b = appendU16(b, uint16(len(m.Withdrawn)))
	for _, p := range m.Withdrawn {
		b = appendPrefix(b, p)
	}
	b = appendU16(b, uint16(len(m.Routes)))
	for _, rt := range m.Routes {
		b = appendPrefix(b, rt.Prefix)
		b = appendU16(b, uint16(len(rt.ASPath)))
		for _, h := range rt.ASPath {
			b = appendU32(b, uint32(h))
		}
		b = appendU32(b, uint32(rt.Origin))
		b = appendU64(b, rt.ExpireUnix)
	}
	return b
}

// Encoded sizes the Update decoder checks announced counts against: a
// prefix, an AS-path hop, and a route with an empty path.
const (
	prefixSize   = 5
	hopSize      = 4
	minRouteSize = prefixSize + 2 + 4 + 8
)

// DecodePayload implements Message. A list is decoded into the array m's
// holds when that has room, and is otherwise allocated once, at its announced
// length, after that length has been checked against the bytes left: a
// forged count cannot allocate more than the frame could hold. An empty list
// decodes as nil, as into a new Update. Every route's AS path is allocated
// afresh, since a receiver may keep it (bgp.Speaker.HandleUpdate does).
func (m *Update) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Table = Table(r.u8())
	if r.err == nil && int(m.Table) >= NumTables {
		return fmt.Errorf("wire: unknown table %d", uint8(m.Table))
	}
	m.Withdrawn = resize(m.Withdrawn, r.count(prefixSize))
	for i := range m.Withdrawn {
		m.Withdrawn[i] = r.prefix()
	}
	m.Routes = resize(m.Routes, r.count(minRouteSize))
	for i := 0; i < len(m.Routes) && r.err == nil; i++ {
		rt := &m.Routes[i]
		rt.Prefix = r.prefix()
		rt.ASPath = nil
		if np := r.count(hopSize); np > 0 {
			rt.ASPath = make([]DomainID, np)
			for j := range rt.ASPath {
				rt.ASPath[j] = DomainID(r.u32())
			}
		}
		rt.Origin = DomainID(r.u32())
		rt.ExpireUnix = r.u64()
	}
	return r.done()
}

// resize returns s at length n, in s's array when that has room; nil when n
// is 0.
func resize[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case cap(s) < n:
		return make([]T, n)
	}
	return s[:n]
}

// -------------------------------------------------------------------- MASC

// Claim announces that a domain claims an address range from its parent's
// space (or from 224/4 for top-level domains). Claims propagate to the
// parent and all siblings, who have the collision-listening period to
// object (paper §4.1).
type Claim struct {
	TraceCarrier
	Claimer DomainID
	// ClaimID orders competing claims: lower wins, with Claimer as the
	// tiebreak. Implementations use a timestamp-derived value, per the
	// paper's footnote on winner selection.
	ClaimID  uint64
	Prefix   addr.Prefix
	LifeSecs uint32
}

// Type implements Message.
func (*Claim) Type() MsgType { return TypeClaim }

// AppendPayload implements Message.
func (m *Claim) AppendPayload(b []byte) []byte {
	b = appendU32(b, uint32(m.Claimer))
	b = appendU64(b, m.ClaimID)
	b = appendPrefix(b, m.Prefix)
	return appendU32(b, m.LifeSecs)
}

// DecodePayload implements Message.
func (m *Claim) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Claimer = DomainID(r.u32())
	m.ClaimID = r.u64()
	m.Prefix = r.prefix()
	m.LifeSecs = r.u32()
	return r.done()
}

// Collision reasons.
const (
	// CollideInUse: the announced range overlaps a range the sender holds
	// or has a better claim on.
	CollideInUse uint8 = 1
	// CollideOutsideParent: the claim falls outside the parent's
	// (possibly re-acquired) space (§4.4 start-up behavior).
	CollideOutsideParent uint8 = 3
)

// Collision announces that a claim conflicts with an existing allocation or
// a better claim; the losing claimer must select a different range.
type Collision struct {
	TraceCarrier
	From   DomainID // the objecting domain
	Loser  DomainID // whose claim is rejected
	Prefix addr.Prefix
	// Conflict is the objector's range that the claim collided with, so
	// the loser can avoid it (and only it) when re-selecting. For a
	// rejection that is not about occupancy (outside the parent space) it
	// equals Prefix.
	Conflict addr.Prefix
	Reason   uint8
}

// Type implements Message.
func (*Collision) Type() MsgType { return TypeCollision }

// AppendPayload implements Message.
func (m *Collision) AppendPayload(b []byte) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.Loser))
	b = appendPrefix(b, m.Prefix)
	b = appendPrefix(b, m.Conflict)
	return append(b, m.Reason)
}

// DecodePayload implements Message.
func (m *Collision) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.From = DomainID(r.u32())
	m.Loser = DomainID(r.u32())
	m.Prefix = r.prefix()
	m.Conflict = r.prefix()
	m.Reason = r.u8()
	return r.done()
}

// Release relinquishes a previously won range before its lifetime expires.
type Release struct {
	Claimer DomainID
	Prefix  addr.Prefix
}

// Type implements Message.
func (*Release) Type() MsgType { return TypeRelease }

// AppendPayload implements Message.
func (m *Release) AppendPayload(b []byte) []byte {
	b = appendU32(b, uint32(m.Claimer))
	return appendPrefix(b, m.Prefix)
}

// DecodePayload implements Message.
func (m *Release) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Claimer = DomainID(r.u32())
	m.Prefix = r.prefix()
	return r.done()
}

// RangeLife pairs a prefix with its remaining lifetime.
type RangeLife struct {
	Prefix   addr.Prefix
	LifeSecs uint32
}

// RangeAdvert is a parent domain advertising its currently held address
// ranges to its children, who claim sub-ranges from them.
type RangeAdvert struct {
	Owner  DomainID
	Ranges []RangeLife
}

// Type implements Message.
func (*RangeAdvert) Type() MsgType { return TypeRangeAdvert }

// AppendPayload implements Message.
func (m *RangeAdvert) AppendPayload(b []byte) []byte {
	b = appendU32(b, uint32(m.Owner))
	b = appendU16(b, uint16(len(m.Ranges)))
	for _, rl := range m.Ranges {
		b = appendPrefix(b, rl.Prefix)
		b = appendU32(b, rl.LifeSecs)
	}
	return b
}

// DecodePayload implements Message.
func (m *RangeAdvert) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Owner = DomainID(r.u32())
	n := int(r.u16())
	m.Ranges = nil
	for i := 0; i < n && r.err == nil; i++ {
		var rl RangeLife
		rl.Prefix = r.prefix()
		rl.LifeSecs = r.u32()
		m.Ranges = append(m.Ranges, rl)
	}
	return r.done()
}

// -------------------------------------------------------------------- BGMP

// GroupJoin asks the receiving BGMP peer to add the sender as a child
// target in its (*,G) entry, creating the entry (and propagating the join
// toward the root domain) if needed.
type GroupJoin struct {
	TraceCarrier
	Group addr.Addr
}

// Type implements Message.
func (*GroupJoin) Type() MsgType { return TypeGroupJoin }

// AppendPayload implements Message.
func (m *GroupJoin) AppendPayload(b []byte) []byte { return appendAddr(b, m.Group) }

// DecodePayload implements Message.
func (m *GroupJoin) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Group = r.addr()
	return r.done()
}

// GroupPrune removes the sender from the receiver's (*,G) child targets.
type GroupPrune struct {
	TraceCarrier
	Group addr.Addr
}

// Type implements Message.
func (*GroupPrune) Type() MsgType { return TypeGroupPrune }

// AppendPayload implements Message.
func (m *GroupPrune) AppendPayload(b []byte) []byte { return appendAddr(b, m.Group) }

// DecodePayload implements Message.
func (m *GroupPrune) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Group = r.addr()
	return r.done()
}

// SourceJoin establishes a source-specific branch: (S,G) state toward the
// source, terminating at the first router on the group's bidirectional
// tree or at the source domain (paper §5.3).
type SourceJoin struct {
	TraceCarrier
	Group  addr.Addr
	Source addr.Addr
}

// Type implements Message.
func (*SourceJoin) Type() MsgType { return TypeSourceJoin }

// AppendPayload implements Message.
func (m *SourceJoin) AppendPayload(b []byte) []byte {
	b = appendAddr(b, m.Group)
	return appendAddr(b, m.Source)
}

// DecodePayload implements Message.
func (m *SourceJoin) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Group = r.addr()
	m.Source = r.addr()
	return r.done()
}

// SourcePrune removes source-specific state, or — sent up the shared tree —
// stops duplicate copies of S's packets arriving along the shared tree once
// a source-specific branch delivers them.
type SourcePrune struct {
	TraceCarrier
	Group  addr.Addr
	Source addr.Addr
}

// Type implements Message.
func (*SourcePrune) Type() MsgType { return TypeSourcePrune }

// AppendPayload implements Message.
func (m *SourcePrune) AppendPayload(b []byte) []byte {
	b = appendAddr(b, m.Group)
	return appendAddr(b, m.Source)
}

// DecodePayload implements Message.
func (m *SourcePrune) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Group = r.addr()
	m.Source = r.addr()
	return r.done()
}

// Data flag bits (see Data.AppendPayload).
const (
	dataFlagEncap  uint8 = 1 << 0
	dataFlagTunnel uint8 = 1 << 1
	dataFlagBits   uint8 = 1 << 2
	dataFlagKnown        = dataFlagEncap | dataFlagTunnel | dataFlagBits
)

// Data carries one multicast datagram between BGMP peers. The optional
// TunnelTo and Bits headers serve the alternative data-plane backends
// (internal/dataplane): both are absent on classic shared-tree frames,
// which keeps the original encoding byte-for-byte unchanged.
type Data struct {
	Group  addr.Addr
	Source addr.Addr
	TTL    uint8
	// Encap marks a unicast-encapsulated copy sent between border routers
	// of one domain to dodge intra-domain RPF failures (paper §5.3).
	Encap bool
	// TunnelTo, when nonzero, marks a map-and-encap outer header: the
	// packet is unicast-tunneled to the domain owning this address (the
	// group's root domain, or a member domain on the way back down) and
	// decapsulated there.
	TunnelTo addr.Addr
	// Bits, when non-nil, is a BIER-style bitstring: bit i (word i/64, bit
	// i%64) set means the packet must still reach domain i. Transit
	// routers forward per set bit with no per-group state.
	Bits    []uint64
	Payload []byte
}

// MaxDataBit is the largest bit a Data frame's bitstring can carry: the
// word count travels as a u16.
const MaxDataBit = 0xFFFF*64 - 1

// Type implements Message.
func (*Data) Type() MsgType { return TypeData }

// AppendPayload implements Message.
func (m *Data) AppendPayload(b []byte) []byte {
	b = appendAddr(b, m.Group)
	b = appendAddr(b, m.Source)
	b = append(b, m.TTL)
	var flags uint8
	if m.Encap {
		flags |= dataFlagEncap
	}
	if m.TunnelTo != 0 {
		flags |= dataFlagTunnel
	}
	if m.Bits != nil {
		flags |= dataFlagBits
	}
	b = append(b, flags)
	if flags&dataFlagTunnel != 0 {
		b = appendAddr(b, m.TunnelTo)
	}
	if flags&dataFlagBits != 0 {
		b = appendU16(b, uint16(len(m.Bits)))
		for _, w := range m.Bits {
			b = appendU64(b, w)
		}
	}
	return appendBytes(b, m.Payload)
}

// DecodePayload implements Message. Payload and Bits are copied into the
// arrays m holds when they have room: a reused Data allocates only to grow.
func (m *Data) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Group = r.addr()
	m.Source = r.addr()
	m.TTL = r.u8()
	flags := r.u8()
	if r.err == nil && flags&^dataFlagKnown != 0 {
		return fmt.Errorf("wire: data frame with undefined flag bits 0x%02x", flags)
	}
	m.Encap = flags&dataFlagEncap != 0
	m.TunnelTo = 0
	if flags&dataFlagTunnel != 0 {
		// Zero means "no tunnel" in memory, so it cannot be a tunnel's end.
		if m.TunnelTo = r.addr(); r.err == nil && m.TunnelTo == 0 {
			return fmt.Errorf("wire: data frame tunnelled to the zero address")
		}
	}
	bits := m.Bits
	m.Bits = nil
	if flags&dataFlagBits != 0 {
		// Non-nil even when empty, for flag round-trip fidelity.
		n := r.count(8)
		if bits == nil || cap(bits) < n {
			bits = make([]uint64, n)
		}
		m.Bits = bits[:n]
		for i := range m.Bits {
			m.Bits[i] = r.u64()
		}
	}
	m.Payload = r.bytes(m.Payload)
	return r.done()
}

// MemberReport carries domain-level group membership toward the group's
// root domain for the stateless data-plane backends (BIER, map-and-encap):
// instead of per-hop join state, the root learns which domains are members
// and transit routers stay group-stateless. It is the inter-domain analogue
// of an IGMP report / BIER overlay signal.
type MemberReport struct {
	TraceCarrier
	Group addr.Addr
	// Domain is the member domain the report speaks for.
	Domain DomainID
	// Leave retracts the membership instead of asserting it.
	Leave bool
}

// Type implements Message.
func (*MemberReport) Type() MsgType { return TypeMemberReport }

// AppendPayload implements Message.
func (m *MemberReport) AppendPayload(b []byte) []byte {
	b = appendAddr(b, m.Group)
	b = appendU32(b, uint32(m.Domain))
	var flags uint8
	if m.Leave {
		flags |= 1
	}
	return append(b, flags)
}

// DecodePayload implements Message.
func (m *MemberReport) DecodePayload(b []byte) error {
	r := reader{b: b}
	m.Group = r.addr()
	m.Domain = DomainID(r.u32())
	flags := r.u8()
	if r.err == nil && flags&^uint8(1) != 0 {
		return fmt.Errorf("wire: member report with undefined flag bits 0x%02x", flags)
	}
	m.Leave = flags&1 != 0
	return r.done()
}
