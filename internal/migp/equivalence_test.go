package migp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// The fabric keeps members, border order and interior distances current
// instead of rebuilding them per packet. refFabric is the per-packet
// rebuild — sort the map keys, search the graph for every packet — kept
// here as the oracle the cached path is compared against.

const sptAfter = 2 // PIM-SM switchover threshold used on both sides

// logBorder records what the fabric (or the oracle) asks of one border.
type logBorder struct {
	router wire.RouterID
	state  map[addr.Addr]bool // groups it claims forwarding state for
	log    *[]string
}

func (b *logBorder) LocalJoin(g addr.Addr)  { b.note("local-join", g) }
func (b *logBorder) LocalLeave(g addr.Addr) { b.note("local-leave", g) }
func (b *logBorder) Deliver(src bgmp.Target, d *wire.Data) {
	b.note("handoff", d.Group)
}
func (b *logBorder) HandleFromBorder(wire.RouterID, wire.Message) {}
func (b *logBorder) HasForwardingState(g addr.Addr) bool          { return b.state[g] }
func (b *logBorder) note(what string, g addr.Addr) {
	*b.log = append(*b.log, fmt.Sprintf("%s r%d %v", what, b.router, g))
}

// refFabric is the old data path.
type refFabric struct {
	g        *topology.Graph
	proto    string
	strict   bool
	bestExit func(addr.Addr) wire.RouterID
	borders  map[wire.RouterID]migp.Node
	comps    map[wire.RouterID]*logBorder
	members  map[addr.Addr]map[migp.Node]int
	joined   map[addr.Addr]map[wire.RouterID]bool
	seen     map[[2]addr.Addr]int // PIM-SM packets per (S,G)
	stats    migp.DeliveryStats
	log      *[]string
}

func (f *refFabric) hostJoin(g addr.Addr, at migp.Node) {
	if f.members[g] == nil {
		f.members[g] = map[migp.Node]int{}
	}
	f.members[g][at]++
	if len(f.members[g]) == 1 && f.members[g][at] == 1 {
		if r := f.bestExit(g); r != 0 && f.comps[r] != nil {
			f.comps[r].LocalJoin(g)
		}
	}
}

func (f *refFabric) hostLeave(g addr.Addr, at migp.Node) {
	m := f.members[g]
	if m[at] == 0 {
		return
	}
	if m[at]--; m[at] == 0 {
		delete(m, at)
	}
	if len(m) == 0 {
		delete(f.members, g)
		if r := f.bestExit(g); r != 0 && f.comps[r] != nil {
			f.comps[r].LocalLeave(g)
		}
	}
}

// hops is each protocol's delivery cost, searched afresh.
func (f *refFabric) hops(entry migp.Node, src, group addr.Addr, m migp.Node) int {
	distEntry, _ := f.g.BFS(entry)
	switch f.proto {
	case "cbt":
		dist, parent := f.g.BFS(migp.HashGroup(group, f.g.NumDomains()))
		return migp.TreePath(dist, parent, entry, m)
	case "pimsm":
		rp := migp.HashGroup(group, f.g.NumDomains())
		distRP, _ := f.g.BFS(rp)
		if distRP[m] < 0 || distEntry[rp] < 0 {
			return -1
		}
		h := distEntry[rp] + distRP[m]
		if f.seen[[2]addr.Addr{src, group}] > sptAfter && distEntry[m] >= 0 && distEntry[m] < h {
			h = distEntry[m]
		}
		return h
	}
	return distEntry[m]
}

func (f *refFabric) deliver(entry migp.Node, from wire.RouterID, d *wire.Data) {
	f.seen[[2]addr.Addr{d.Source, d.Group}]++
	var nodes []migp.Node
	for n := range f.members[d.Group] {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	f.stats.Injected++
	for _, n := range nodes {
		if h := f.hops(entry, d.Source, d.Group, n); h >= 0 {
			f.stats.HostDeliveries++
			f.stats.InteriorHops += h
			*f.log = append(*f.log, fmt.Sprintf("host n%d %v", n, d.Group))
		}
	}
	var routers []wire.RouterID
	for r := range f.comps {
		routers = append(routers, r)
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	for _, r := range routers {
		if r == from {
			continue
		}
		if from == 0 || f.joined[d.Group][r] || f.comps[r].HasForwardingState(d.Group) {
			f.comps[r].Deliver(bgmp.MIGPTarget, d)
		}
	}
}

func (f *refFabric) inject(r wire.RouterID, d *wire.Data) bool {
	if f.strict {
		if exp := f.bestExit(d.Source); exp != 0 && exp != r {
			f.stats.RPFDrops++
			return false
		}
	}
	f.deliver(f.borders[r], r, d)
	return true
}

// randomInterior returns a random graph on 1..10 nodes: a random tree plus
// a few chords, one time in four with the last node left cut off so the
// unreachable-member path runs too.
func randomInterior(rng *rand.Rand) *topology.Graph {
	n := 1 + rng.Intn(10)
	g := topology.New(n)
	connected := n
	if n > 2 && rng.Intn(4) == 0 {
		connected = n - 1
	}
	for i := 1; i < connected; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID(rng.Intn(i)))
	}
	for k := rng.Intn(3); k > 0 && connected > 2; k-- {
		a, b := rng.Intn(connected), rng.Intn(connected)
		if a != b && !g.HasLink(topology.DomainID(a), topology.DomainID(b)) {
			g.AddLink(topology.DomainID(a), topology.DomainID(b))
		}
	}
	return g
}

func TestFabricMatchesPerPacketRebuild(t *testing.T) {
	protocols := map[string]func() *migp.Protocol{
		"dvmrp": migp.DVMRP,
		"pimdm": func() *migp.Protocol { return migp.PIMDM(2) },
		"mospf": migp.MOSPF,
		"pimsm": func() *migp.Protocol { return migp.PIMSM(sptAfter) },
		"cbt":   migp.CBT,
	}
	for name, mk := range protocols {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				runEquivalence(t, name, mk(), rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func runEquivalence(t *testing.T, name string, proto *migp.Protocol, rng *rand.Rand) {
	g := randomInterior(rng)
	n := g.NumDomains()

	// Both sides see the same attached routers, in ascending order; the
	// best exit is some attached router or none, per the BestExit contract.
	var attached []wire.RouterID
	bestExit := func(a addr.Addr) wire.RouterID {
		if k := int(a>>3) % (len(attached) + 1); k < len(attached) {
			return attached[k]
		}
		return 0
	}

	var gotLog, wantLog []string
	fab := migp.NewFabric(migp.FabricConfig{
		Domain: 1, Graph: g, Protocol: proto, BestExit: bestExit,
		OnHostDeliver: func(at migp.Node, d *wire.Data) {
			gotLog = append(gotLog, fmt.Sprintf("host n%d %v", at, d.Group))
		},
	})
	ref := &refFabric{
		g: g, proto: name, strict: proto.StrictRPF(), bestExit: bestExit,
		borders: map[wire.RouterID]migp.Node{},
		comps:   map[wire.RouterID]*logBorder{},
		members: map[addr.Addr]map[migp.Node]int{},
		joined:  map[addr.Addr]map[wire.RouterID]bool{},
		seen:    map[[2]addr.Addr]int{},
		log:     &wantLog,
	}
	adapters := map[wire.RouterID]bgmp.MIGP{}

	groups := []addr.Addr{addr.MakeAddr(224, 1, 0, 1), addr.MakeAddr(224, 1, 0, 2), addr.MakeAddr(239, 7, 7, 7)}
	sources := []addr.Addr{addr.MakeAddr(10, 0, 0, 1), addr.MakeAddr(10, 0, 1, 9), addr.MakeAddr(10, 3, 0, 40)}
	pick := func(as []addr.Addr) addr.Addr { return as[rng.Intn(len(as))] }
	node := func() migp.Node { return migp.Node(rng.Intn(n)) }

	attach := func() {
		r := wire.RouterID(100 + rng.Intn(50))
		if _, dup := adapters[r]; dup {
			return
		}
		at := node()
		state := map[addr.Addr]bool{}
		for _, gr := range groups {
			state[gr] = rng.Intn(3) == 0
		}
		adapters[r] = fab.AttachBorder(r, at)
		fab.SetComponent(r, &logBorder{router: r, state: state, log: &gotLog})
		ref.borders[r] = at
		ref.comps[r] = &logBorder{router: r, state: state, log: &wantLog}
		attached = append(attached, r)
		slices.Sort(attached)
	}
	attach()

	for step := 0; step < 300; step++ {
		gr, src := pick(groups), pick(sources)
		d := &wire.Data{Group: gr, Source: src, TTL: 16}
		switch op := rng.Intn(10); {
		case op < 2:
			at := node()
			fab.HostJoin(gr, at)
			ref.hostJoin(gr, at)
		case op < 4:
			at := node()
			fab.HostLeave(gr, at)
			ref.hostLeave(gr, at)
		case op == 4 && len(attached) < 6:
			attach()
		case op == 5:
			r := attached[rng.Intn(len(attached))]
			if rng.Intn(2) == 0 {
				adapters[r].JoinGroup(gr)
				if ref.joined[gr] == nil {
					ref.joined[gr] = map[wire.RouterID]bool{}
				}
				ref.joined[gr][r] = true
			} else {
				adapters[r].LeaveGroup(gr)
				delete(ref.joined[gr], r)
			}
		case op < 8:
			at := node()
			fab.SendFromHost(at, d)
			ref.deliver(at, 0, d)
		default:
			r := attached[rng.Intn(len(attached))]
			if got, want := adapters[r].Inject(d), ref.inject(r, d); got != want {
				t.Fatalf("step %d: Inject at r%d = %v, oracle %v", step, r, got, want)
			}
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("step %d: callbacks and hand-offs diverge:\n got  %v\n want %v", step, gotLog, wantLog)
		}
		if got := fab.Stats(); got != ref.stats {
			t.Fatalf("step %d: stats %+v, oracle %+v", step, got, ref.stats)
		}
		gotLog, wantLog = gotLog[:0], wantLog[:0]
	}
}

// With one border the interior RPF check cannot refuse — BestExit is that
// border or none — so Inject does not make it.
func TestInjectSingleBorderNeverRefuses(t *testing.T) {
	for _, exit := range []wire.RouterID{0, 101} {
		rig := newFabricRig(t, migp.DVMRP(), 101)
		rig.bestExit = 101
		rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 5}} // root domain
		rig.fab.HostJoin(fGroup, 1)
		rig.bestExit = exit
		for i := 0; i < 3; i++ {
			rig.comps[101].HandlePeer(7, &wire.Data{Group: fGroup, Source: fSrc, TTL: 16})
		}
		if st := rig.fab.Stats(); st.RPFDrops != 0 || st.Injected != 3 || len(rig.delivered) != 3 {
			t.Fatalf("BestExit=%d: stats %+v, %d deliveries; want 3 injected, none refused",
				exit, st, len(rig.delivered))
		}
	}
}

func benchFabricDeliver(b *testing.B, nodes int) {
	g := topology.New(nodes)
	for i := 0; i < nodes-1; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID(i+1))
	}
	var log []string
	fab := migp.NewFabric(migp.FabricConfig{Domain: 1, Graph: g, Protocol: migp.DVMRP(),
		BestExit:      func(addr.Addr) wire.RouterID { return 1 },
		OnHostDeliver: func(migp.Node, *wire.Data) {}})
	border := fab.AttachBorder(1, 0)
	fab.SetComponent(1, &logBorder{router: 1, log: &log})
	for at := 0; at < nodes; at += 2 {
		fab.HostJoin(fGroup, migp.Node(at))
	}
	d := &wire.Data{Group: fGroup, Source: fSrc, TTL: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		border.Inject(d)
	}
}

func BenchmarkFabricDeliver(b *testing.B) {
	b.Run("nodes=1", func(b *testing.B) { benchFabricDeliver(b, 1) })
	b.Run("nodes=8", func(b *testing.B) { benchFabricDeliver(b, 8) })
}
