package migp

import (
	"slices"
	"sync"
	"sync/atomic"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// DeliveryStats aggregates data-plane activity inside one domain.
type DeliveryStats struct {
	// Injected counts packets accepted into the interior.
	Injected int
	// RPFDrops counts packets rejected at injection because they entered
	// at the wrong border for their source.
	RPFDrops int
	// HostDeliveries counts (packet, member-node) deliveries.
	HostDeliveries int
	// InteriorHops sums interior hop counts over all deliveries.
	InteriorHops int
}

// FabricConfig configures a domain fabric.
type FabricConfig struct {
	Domain wire.DomainID
	// Graph is the interior router topology.
	Graph *topology.Graph
	// Protocol supplies the interior delivery mechanics.
	Protocol *Protocol
	// BestExit returns the domain's best exit border router for an
	// address (a G-RIB lookup for groups, M-RIB/unicast for sources);
	// zero when unknown. Interior joins are reported to the group's best
	// exit router — the Domain Wide Report role in DVMRP (§5).
	//
	// Contract: the result is zero or a router attached to this fabric.
	// Inject relies on it: with a single border attached the §5.3 RPF
	// check could only compare that border with itself, so the lookup is
	// not made at all.
	BestExit func(a addr.Addr) wire.RouterID
	// OnHostDeliver, if set, observes every member delivery (for tests
	// and example programs). d is valid until it returns: copy what is kept.
	OnHostDeliver func(member Node, d *wire.Data)
}

// Border is the fabric's view of one border router's forwarding plane.
// *bgmp.Component satisfies it directly (the shared-tree default); the
// pluggable backends in internal/dataplane satisfy it through core's
// adapter, so the fabric never depends on which data plane is running.
type Border interface {
	// LocalJoin reports the domain's first interior member of g; the
	// fabric calls it on the group's best exit border.
	LocalJoin(g addr.Addr)
	// LocalLeave undoes LocalJoin when the last interior member leaves.
	LocalLeave(g addr.Addr)
	// Deliver hands the border a packet from the domain interior
	// (bgmp.MIGPTarget) — the single data ingress of the forwarding API.
	// d is valid until Deliver returns; a border copies what it keeps.
	Deliver(src bgmp.Target, d *wire.Data)
	// HandleFromBorder processes a message relayed from a sibling border
	// router through the domain; a *wire.Data is valid until it returns.
	HandleFromBorder(from wire.RouterID, msg wire.Message)
	// HasForwardingState reports whether the border holds per-group
	// forwarding state for g (used to route border-entered packets only
	// to interested borders).
	HasForwardingState(g addr.Addr) bool
}

// Fabric is one domain's interior: the glue between its border routers'
// forwarding planes and the interior protocol. Safe for concurrent use.
//
// What a packet needs — the group's member nodes in ascending order, the
// borders in router order, interior distances — is kept current where it
// changes (HostJoin/HostLeave, AttachBorder/SetComponent, never), so
// deliver only reads it.
type Fabric struct {
	cfg FabricConfig
	// strict is cfg.Protocol.StrictRPF(), a constant of the protocol.
	strict bool
	// multiBorder reports more than one attached border: only then can a
	// packet enter at the wrong one (see FabricConfig.BestExit).
	multiBorder atomic.Bool

	mu sync.Mutex
	// borders lists the attached border routers in ascending order, the
	// order they are handed a packet in. guarded by mu
	borders []wire.RouterID
	// comps holds the forwarding plane of each border router.
	// guarded by mu
	comps map[wire.RouterID]Border
	// members tracks interior host membership per group.
	// guarded by mu
	members map[addr.Addr]memberSet
	// borderJoined tracks which border routers joined a group via BGMP.
	// guarded by mu
	borderJoined map[addr.Addr]map[wire.RouterID]bool
	// paths serves the interior protocol's distance rows. guarded by mu
	paths *Paths
	// hops is the per-packet scratch Protocol.Deliver fills. guarded by mu
	hops []int

	// stats accumulates data-plane counters. guarded by mu
	stats DeliveryStats
}

// memberSet is one group's interior membership: the member nodes ascending
// and, beside them, the number of hosts joined at each. nodes is replaced,
// never edited, when the set changes — deliver reads it after unlocking.
type memberSet struct {
	nodes  []Node
	counts []int
}

// Stats returns a snapshot of the fabric's data-plane counters.
func (f *Fabric) Stats() DeliveryStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// NewFabric returns an empty fabric; attach border routers with
// AttachBorder. cfg.Graph must not change afterwards.
func NewFabric(cfg FabricConfig) *Fabric {
	return &Fabric{
		cfg:          cfg,
		strict:       cfg.Protocol.StrictRPF(),
		comps:        map[wire.RouterID]Border{},
		members:      map[addr.Addr]memberSet{},
		borderJoined: map[addr.Addr]map[wire.RouterID]bool{},
		paths:        NewPaths(cfg.Graph),
	}
}

// AttachBorder registers a border router at an interior node and returns
// the bgmp.MIGP adapter to hand to its BGMP component. Call SetComponent
// once the component exists.
func (f *Fabric) AttachBorder(r wire.RouterID, at Node) bgmp.MIGP {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, found := slices.BinarySearch(f.borders, r); !found {
		f.borders = slices.Insert(f.borders, i, r)
		f.multiBorder.Store(len(f.borders) > 1)
	}
	return &borderAdapter{fabric: f, router: r, at: at}
}

// SetComponent binds the forwarding plane of a previously attached border.
func (f *Fabric) SetComponent(r wire.RouterID, c Border) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.comps[r] = c
}

// HostJoin registers an interior host (attached at node) joining group g.
// The first member notifies the group's best exit border router, as a
// DVMRP Domain Wide Report / PIM join toward the exit would (§5).
func (f *Fabric) HostJoin(g addr.Addr, at Node) {
	f.mu.Lock()
	ms := f.members[g]
	i, found := slices.BinarySearch(ms.nodes, at)
	if found {
		ms.counts[i]++
	} else {
		nodes := make([]Node, 0, len(ms.nodes)+1)
		ms.nodes = append(append(append(nodes, ms.nodes[:i]...), at), ms.nodes[i:]...)
		ms.counts = slices.Insert(ms.counts, i, 1)
		f.members[g] = ms
	}
	var exit Border
	if first := !found && len(ms.nodes) == 1; first && f.cfg.BestExit != nil {
		if r := f.cfg.BestExit(g); r != 0 {
			exit = f.comps[r]
		}
	}
	f.mu.Unlock()
	if exit != nil {
		exit.LocalJoin(g)
	}
}

// HostLeave removes an interior member; the last member triggers a
// LocalLeave at the best exit router.
func (f *Fabric) HostLeave(g addr.Addr, at Node) {
	f.mu.Lock()
	ms := f.members[g]
	i, found := slices.BinarySearch(ms.nodes, at)
	if !found {
		f.mu.Unlock()
		return
	}
	if ms.counts[i]--; ms.counts[i] == 0 {
		nodes := make([]Node, 0, len(ms.nodes)-1)
		ms.nodes = append(append(nodes, ms.nodes[:i]...), ms.nodes[i+1:]...)
		ms.counts = slices.Delete(ms.counts, i, i+1)
		f.members[g] = ms
	}
	empty := len(ms.nodes) == 0
	if empty {
		delete(f.members, g)
	}
	var exit Border
	if empty && f.cfg.BestExit != nil {
		if r := f.cfg.BestExit(g); r != 0 {
			exit = f.comps[r]
		}
	}
	f.mu.Unlock()
	if exit != nil {
		exit.LocalLeave(g)
	}
}

// SendFromHost originates a packet from an interior host attached at node:
// it is delivered to interior members and reaches the border routers per
// the interior protocol (the best exit forwards it toward the root domain;
// on-tree borders forward it along the shared tree). In IP multicast the
// sender need not be a member (§3).
func (f *Fabric) SendFromHost(at Node, d *wire.Data) {
	f.deliver(at, 0, d)
}

// MemberNodes returns the interior nodes with members of g, ascending.
func (f *Fabric) MemberNodes(g addr.Addr) []Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.members[g].nodes)
}

// deliver distributes a packet within the domain from an entry node.
// fromBorder is nonzero when the packet entered through that border router.
func (f *Fabric) deliver(entry Node, fromBorder wire.RouterID, d *wire.Data) {
	f.mu.Lock()
	members := f.members[d.Group].nodes
	if cap(f.hops) < len(members) {
		f.hops = make([]int, len(members))
	}
	hops := f.hops[:len(members)]
	f.cfg.Protocol.Deliver(f.paths, entry, d.Source, d.Group, members, hops)
	f.stats.Injected++
	reached := 0
	for _, h := range hops {
		if h >= 0 {
			reached++
			f.stats.InteriorHops += h
		}
	}
	f.stats.HostDeliveries += reached
	delivered := members
	if reached < len(members) {
		// A partitioned interior: only the reachable members are told.
		delivered = make([]Node, 0, reached)
		for i, m := range members {
			if hops[i] >= 0 {
				delivered = append(delivered, m)
			}
		}
	}
	// Border routers that joined the group (or that must see interior-
	// origin traffic to forward it off-domain) receive the packet too.
	// Interior-origin packets (fromBorder == 0) reach every border —
	// DVMRP floods them; stateless borders drop or forward toward the
	// root per BGMP's rules. Border-entered packets reach the borders
	// with interest: explicit joins or (*,G)/shared-tree state ("Since
	// the border routers A2, A3, and A4 are on the shared tree for the
	// group, they each forward the data packets they receive", §5.2) —
	// the others are pruned.
	var few [4]Border // on the stack: a domain rarely has more borders
	handoffs := few[:0]
	joined := f.borderJoined[d.Group]
	for _, r := range f.borders {
		if r == fromBorder {
			continue
		}
		comp := f.comps[r]
		if comp != nil && (fromBorder == 0 || joined[r] || comp.HasForwardingState(d.Group)) {
			handoffs = append(handoffs, comp)
		}
	}
	f.mu.Unlock()

	if onDeliver := f.cfg.OnHostDeliver; onDeliver != nil {
		for _, n := range delivered {
			onDeliver(n, d)
		}
	}
	for _, h := range handoffs {
		h.Deliver(bgmp.MIGPTarget, d)
	}
}

// borderAdapter implements bgmp.MIGP for one border router.
type borderAdapter struct {
	fabric *Fabric
	router wire.RouterID
	at     Node
}

// JoinGroup implements bgmp.MIGP.
func (b *borderAdapter) JoinGroup(g addr.Addr) {
	f := b.fabric
	f.mu.Lock()
	m := f.borderJoined[g]
	if m == nil {
		m = make(map[wire.RouterID]bool, 2)
		f.borderJoined[g] = m
	}
	m[b.router] = true
	f.mu.Unlock()
}

// LeaveGroup implements bgmp.MIGP.
func (b *borderAdapter) LeaveGroup(g addr.Addr) {
	f := b.fabric
	f.mu.Lock()
	delete(f.borderJoined[g], b.router)
	if len(f.borderJoined[g]) == 0 {
		delete(f.borderJoined, g)
	}
	f.mu.Unlock()
}

// RelayToBorder implements bgmp.MIGP: control messages and encapsulated
// data cross the domain as unicast between border routers.
func (b *borderAdapter) RelayToBorder(to wire.RouterID, msg wire.Message) {
	f := b.fabric
	f.mu.Lock()
	comp := f.comps[to]
	f.mu.Unlock()
	if comp != nil {
		comp.HandleFromBorder(b.router, msg)
	}
}

// Inject implements bgmp.MIGP: deliver a packet entering at this border,
// enforcing the protocol's RPF discipline. The M-RIB lookup behind it is
// made only when the fabric has a second border the packet could have been
// expected at.
func (b *borderAdapter) Inject(d *wire.Data) bool {
	f := b.fabric
	if f.strict && f.multiBorder.Load() {
		if exp := b.ExpectedEntry(d.Source); exp != 0 && exp != b.router {
			f.mu.Lock()
			f.stats.RPFDrops++
			f.mu.Unlock()
			return false
		}
	}
	f.deliver(b.at, b.router, d)
	return true
}

// ExpectedEntry implements bgmp.MIGP.
func (b *borderAdapter) ExpectedEntry(src addr.Addr) wire.RouterID {
	if b.fabric.cfg.BestExit == nil {
		return 0
	}
	return b.fabric.cfg.BestExit(src)
}

var _ bgmp.MIGP = (*borderAdapter)(nil)
