package experiments

import (
	"math/rand"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/scenario"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/trees"
	"mascbgmp/internal/wire"
)

// The analytical model every workload entry point (RunChurn, RunDataPlane,
// RunWorkload) drives:
//
//   - Root domains — the best-connected domains, as real exchanges would
//     be — run MASC block allocators over the global 224/4 ledger; group
//     addresses come out of their blocks, so the G-RIB size is the number
//     of live claimed prefixes (§4.3).
//   - Each group keeps a trees.SharedTree over its root's shortest paths.
//     What "on-tree", "grafted hops" and "attach point" mean is defined
//     there and nowhere else.
//   - A scenario generator emits membership ops against the model's View;
//     apply performs them.
//   - A steady-state forwarding phase then sends packets from random
//     (often non-member) domains, costed by a per-backend model.
//
// Everything is driven by the seeded rng; a given config yields identical
// results and byte-identical obs snapshots on every run.

// TreeStats is the outcome of a run's membership phase.
type TreeStats struct {
	// Joins and Leaves count applied membership operations; JoinHops and
	// PruneHops the inter-domain hops their join and prune messages
	// traveled (graft/prune tail lengths).
	Joins, Leaves       int
	JoinHops, PruneHops uint64
	// ForwardingEntries is the total per-domain forwarding state at the
	// end: Σ over groups of on-tree domain count. MeanTreeSize is
	// ForwardingEntries / Groups; MembersFinal the total membership.
	ForwardingEntries int
	MeanTreeSize      float64
	MembersFinal      int
}

// ForwardStats is the outcome of a run's steady-state forwarding phase.
type ForwardStats struct {
	// Packets, ForwardHops, and Delivered count packets sent,
	// inter-domain link crossings, and member deliveries.
	Packets     int
	ForwardHops uint64
	Delivered   uint64
	// HeaderBytes and Encaps are the per-packet overhead the selected
	// data plane spent: extra header bytes on inter-domain hops (tunnel
	// outer headers, BIER bitstrings) and tunnels originated. Always zero
	// for the shared-tree model, which forwards natively along tree state.
	HeaderBytes uint64
	Encaps      uint64
}

// modelRoot is one provider domain running a MASC block allocator.
type modelRoot struct {
	paths *trees.RootPaths
	alloc *masc.BlockAllocator
}

// modelGroup is one group's address, membership, and shared tree. members
// and mpos mirror the tree's outstanding joins in the random-access form
// scenario.View needs.
type modelGroup struct {
	root    *modelRoot
	addr    addr.Addr
	tree    *trees.SharedTree
	members []topology.DomainID
	mpos    map[topology.DomainID]int // member → index in members
}

// model is the live state. It implements scenario.View so generators can
// consult membership while emitting.
type model struct {
	g     *topology.Graph
	rng   *rand.Rand
	obs   *obs.Observer
	roots []*modelRoot
	// groups is indexed by the generators' group number. A nil slot is a
	// group whose address could not be leased.
	groups []*modelGroup
	TreeStats
	ForwardStats
	// rootJoins counts joins that grafted all the way to the root domain.
	rootJoins int
}

// newModel sets up the root domains: the rootDomains highest-degree
// domains, each with its shortest paths and a block allocator seeded
// seed+index+1 over one shared ledger. The model's own rng is seeded seed.
func newModel(g *topology.Graph, seed int64, rootDomains int, strat masc.Strategy, ob *obs.Observer) *model {
	st := &model{g: g, rng: rand.New(rand.NewSource(seed)), obs: ob}
	global := masc.NewLedger(addr.MulticastSpace)
	for i, id := range pickRoots(g, rootDomains) {
		ba := masc.NewBlockAllocator(strat, global, rand.New(rand.NewSource(seed+int64(i)+1)))
		ba.SetObserver(ob, wire.DomainID(int(id)+1))
		st.roots = append(st.roots, &modelRoot{paths: trees.NewRootPaths(g, id), alloc: ba})
	}
	return st
}

// addGroup appends a memberless group rooted at root.
func (st *model) addGroup(root *modelRoot, a addr.Addr) {
	st.groups = append(st.groups, &modelGroup{
		root: root,
		addr: a,
		tree: root.paths.NewTree(),
		mpos: map[topology.DomainID]int{},
	})
}

// emitLease reports a group address lease to the observer (a nil
// observer, here and below, is a no-op by obs's contract).
func (st *model) emitLease(gr *modelGroup) {
	st.obs.Emit(obs.Event{Kind: obs.MAASLease,
		Domain: wire.DomainID(int(gr.tree.Root()) + 1), Group: gr.addr})
}

func (st *model) Domains() int      { return st.g.NumDomains() }
func (st *model) Active(g int) bool { return g >= 0 && g < len(st.groups) && st.groups[g] != nil }
func (st *model) IsMember(g int, d topology.DomainID) bool {
	_, ok := st.groups[g].mpos[d]
	return ok
}
func (st *model) MemberCount(g int) int             { return len(st.groups[g].members) }
func (st *model) Member(g, i int) topology.DomainID { return st.groups[g].members[i] }

// apply performs one membership op. Duplicate joins, leaves of
// non-members, and ops from domains that cannot reach the root (file
// topologies may be disconnected) are declined: the view's member count
// does not change, which the generators' retry budgets tolerate.
func (st *model) apply(op scenario.Op) {
	gr := st.groups[op.Group]
	pos, isMember := gr.mpos[op.Domain]
	if op.Join == isMember {
		return
	}
	if op.Join {
		grafted := gr.tree.Join(op.Domain)
		if grafted < 0 {
			return
		}
		gr.mpos[op.Domain] = len(gr.members)
		gr.members = append(gr.members, op.Domain)
		st.Joins++
		st.JoinHops += uint64(grafted)
		if grafted == gr.root.paths.Dist(op.Domain) {
			st.rootJoins++
		}
		st.obs.Emit(obs.Event{Kind: obs.BGMPJoin, Group: gr.addr})
		return
	}
	last := len(gr.members) - 1
	gr.members[pos] = gr.members[last]
	gr.mpos[gr.members[pos]] = pos
	gr.members = gr.members[:last]
	delete(gr.mpos, op.Domain)
	st.Leaves++
	st.PruneHops += uint64(gr.tree.Leave(op.Domain))
	st.obs.Emit(obs.Event{Kind: obs.BGMPPrune, Group: gr.addr})
}

// settle fills the end-of-membership-phase tree totals.
func (st *model) settle() {
	for _, gr := range st.groups {
		if gr == nil {
			continue
		}
		st.ForwardingEntries += gr.tree.Size()
		st.MembersFinal += len(gr.members)
	}
	if len(st.groups) > 0 {
		st.MeanTreeSize = float64(st.ForwardingEntries) / float64(len(st.groups))
	}
}

// gribSize counts the live claimed prefixes across all root domains — the
// group-route table the architecture keeps small through aggregation.
func (st *model) gribSize() int {
	n := 0
	for _, rs := range st.roots {
		n += len(rs.alloc.Holdings())
	}
	return n
}

// forward runs the steady-state phase: sends packets to every group with
// at least minMembers members, each from a uniformly drawn domain that
// can reach the group's root (the cost models walk the root's shortest
// paths; the rng-consuming retry keeps the draw deterministic on
// disconnected file topologies), and hands each (group, sender) to send.
func (st *model) forward(sends, minMembers int, send func(gr *modelGroup, src topology.DomainID)) {
	for _, gr := range st.groups {
		if gr == nil || len(gr.members) < minMembers {
			continue
		}
		for s := 0; s < sends; s++ {
			src := topology.DomainID(st.rng.Intn(st.g.NumDomains()))
			for gr.root.paths.Dist(src) < 0 {
				src = topology.DomainID(st.rng.Intn(st.g.NumDomains()))
			}
			st.Packets++
			send(gr, src)
		}
	}
}

// account adds one packet's cost to the forwarding totals and reports it
// to the observer using the same event kinds (and, for the default model,
// the same sequence) the data plane itself emits.
func (st *model) account(gr *modelGroup, pc packetCost) {
	st.ForwardHops += pc.Hops
	st.HeaderBytes += pc.HeaderBytes
	st.Encaps += pc.Encaps
	st.Delivered += pc.Delivered
	if pc.Hops > 0 {
		st.obs.Emit(obs.Event{Kind: obs.DataForwarded, Group: gr.addr, Count: pc.Hops})
	}
	if pc.Encaps > 0 {
		st.obs.Emit(obs.Event{Kind: obs.DataEncap, Group: gr.addr, Count: pc.Encaps})
	}
	if pc.Delivered > 0 {
		st.obs.Emit(obs.Event{Kind: obs.DataDelivered, Group: gr.addr, Count: pc.Delivered})
	}
	// Per-packet forwarding work (inter-domain crossings) feeds the
	// fan-out distribution benchsuite serializes for the churn suites.
	st.obs.Histogram(obs.HistForwardWork, 0, 0).Observe(pc.Hops)
}

// forwardAll is the forwarding phase under one backend's cost model.
func (st *model) forwardAll(sends, minMembers int, backend string) {
	cost := forwardModel(backend)
	st.forward(sends, minMembers, func(gr *modelGroup, src topology.DomainID) {
		st.account(gr, cost(gr, src))
	})
}

// packetCost is what one steady-state packet costs under one backend's
// forwarding model.
type packetCost struct {
	// Hops counts inter-domain link crossings (climb plus fan-out).
	Hops uint64
	// HeaderBytes is the extra header spend across those crossings.
	HeaderBytes uint64
	// Encaps counts tunnels originated for the packet.
	Encaps uint64
	// Delivered counts member deliveries — identical for every backend,
	// which is the delivery-equivalence the tests pin down.
	Delivered uint64
}

// forwardModel maps a backend name to its per-packet cost function.
// Unknown names (including "") fall back to the shared-tree default, the
// same rule core applies to Config.DataPlane after validation.
func forwardModel(name string) func(*modelGroup, topology.DomainID) packetCost {
	switch name {
	case dataplane.BIERName:
		return bierCost
	case dataplane.MapEncapName:
		return mapEncapCost
	default:
		return sharedTreeCost
	}
}

// sharedTreeCost: the packet climbs toward the root until it hits the
// tree (§5.2: "forward the data packets towards the root domain"), then
// floods the bidirectional tree's size-1 links natively — no extra
// headers, per-group state at every on-tree domain.
func sharedTreeCost(gr *modelGroup, src topology.DomainID) packetCost {
	_, climb := gr.tree.Attach(src)
	return packetCost{
		Hops:      uint64(climb + gr.tree.Size() - 1),
		Delivered: uint64(len(gr.members)),
	}
}

// tunnelToRoot is the first leg both stateless backends share: the
// overlay membership lives only in the root domain, so the packet is
// tunneled all the way there.
func tunnelToRoot(gr *modelGroup, src topology.DomainID) packetCost {
	pc := packetCost{Delivered: uint64(len(gr.members))}
	if climb := uint64(gr.root.paths.Dist(src)); climb > 0 {
		pc.Hops = climb
		pc.Encaps = 1
		pc.HeaderBytes = climb * dataplane.EncapHeaderBytes
	}
	return pc
}

// bierCost: the root stamps a bitstring over the member domains and fans
// out along unicast shortest paths. The copies traverse exactly the union
// of root→member paths — the same size-1 links as the shared tree — but
// every fan-out hop carries the bitstring and transit domains keep zero
// per-group state.
func bierCost(gr *modelGroup, src topology.DomainID) packetCost {
	pc := tunnelToRoot(gr, src)
	if fan := uint64(gr.tree.Size() - 1); fan > 0 {
		// The bitstring is sized by the highest member domain ID (a tree
		// beyond the root implies at least one member).
		top := gr.members[0]
		for _, m := range gr.members[1:] {
			top = max(top, m)
		}
		pc.Hops += fan
		pc.HeaderBytes += fan * uint64(dataplane.BIERHeaderBytes(int(top)/64+1))
	}
	return pc
}

// mapEncapCost: the root originates one unicast tunnel per member domain.
// No fan-out sharing: hops that BIER and the shared tree traverse once are
// paid once per member whose path crosses them, and every hop carries the
// outer header.
func mapEncapCost(gr *modelGroup, src topology.DomainID) packetCost {
	pc := tunnelToRoot(gr, src)
	for _, m := range gr.members {
		d := uint64(gr.root.paths.Dist(m))
		if d == 0 {
			// The member is the root domain itself: native delivery.
			continue
		}
		pc.Hops += d
		pc.HeaderBytes += d * dataplane.EncapHeaderBytes
		pc.Encaps++
	}
	return pc
}

// pickRoots returns the n highest-degree domains, ties broken by lower ID
// (deterministic regardless of map iteration or seed).
func pickRoots(g *topology.Graph, n int) []topology.DomainID {
	if n > g.NumDomains() {
		n = g.NumDomains()
	}
	// Selection by repeated max keeps this O(V·n); n is small (≤ 64-ish).
	out := make([]topology.DomainID, 0, n)
	taken := make([]bool, g.NumDomains())
	for len(out) < n {
		best, bestDeg := topology.NoDomain, -1
		for id := topology.DomainID(0); int(id) < g.NumDomains(); id++ {
			if taken[id] {
				continue
			}
			if d := g.Degree(id); d > bestDeg {
				best, bestDeg = id, d
			}
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}
