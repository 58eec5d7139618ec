package migp_test

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// fabricRig assembles one domain's fabric with real BGMP components wired
// to recorders instead of peers.
type fabricRig struct {
	fab       *migp.Fabric
	comps     map[wire.RouterID]*bgmp.Component
	peerSends map[wire.RouterID][]wire.Message // per-router external sends
	delivered []migp.Node
	bestExit  wire.RouterID
	gribs     map[addr.Addr]bgp.Entry
}

func newFabricRig(t *testing.T, proto *migp.Protocol, borders ...wire.RouterID) *fabricRig {
	t.Helper()
	g := topology.New(len(borders) + 2)
	for i := 0; i < g.NumDomains()-1; i++ {
		g.AddLink(topology.DomainID(i), topology.DomainID(i+1))
	}
	rig := &fabricRig{
		comps:     map[wire.RouterID]*bgmp.Component{},
		peerSends: map[wire.RouterID][]wire.Message{},
		gribs:     map[addr.Addr]bgp.Entry{},
	}
	rig.fab = migp.NewFabric(migp.FabricConfig{
		Domain:   5,
		Graph:    g,
		Protocol: proto,
		BestExit: func(a addr.Addr) wire.RouterID { return rig.bestExit },
		OnHostDeliver: func(n migp.Node, d *wire.Data) {
			rig.delivered = append(rig.delivered, n)
		},
	})
	for i, r := range borders {
		r := r
		adapter := rig.fab.AttachBorder(r, migp.Node(i))
		comp := bgmp.New(bgmp.Config{
			Router: r,
			Domain: 5,
			LookupGroup: func(a addr.Addr) (bgp.Entry, bool) {
				e, ok := rig.gribs[a]
				return e, ok
			},
			LookupSource: func(a addr.Addr) (bgp.Entry, bool) { return bgp.Entry{}, false },
			Internal:     func(id wire.RouterID) bool { _, ok := rig.comps[id]; return ok },
			SendPeer: func(to wire.RouterID, m wire.Message) {
				rig.peerSends[r] = append(rig.peerSends[r], m)
			},
			MIGP: adapter,
		})
		rig.fab.SetComponent(r, comp)
		rig.comps[r] = comp
	}
	return rig
}

var (
	fGroup = addr.MakeAddr(224, 3, 3, 3)
	fSrc   = addr.MakeAddr(10, 9, 9, 9)
)

func TestHostJoinNotifiesBestExit(t *testing.T) {
	rig := newFabricRig(t, migp.DVMRP(), 101, 102)
	rig.bestExit = 102
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.fab.HostJoin(fGroup, 1)
	// The best exit (102) must have created (*,G) and sent a join to its
	// external next hop; 101 must not have.
	if !rig.comps[102].HasGroupState(fGroup) {
		t.Fatal("best exit did not LocalJoin")
	}
	if rig.comps[101].HasGroupState(fGroup) {
		t.Fatal("non-exit border joined")
	}
	if len(rig.peerSends[102]) != 1 {
		t.Fatalf("exit sends = %v", rig.peerSends[102])
	}
	// A second member does not re-notify.
	rig.fab.HostJoin(fGroup, 2)
	if len(rig.peerSends[102]) != 1 {
		t.Fatal("second member re-triggered the join")
	}
	// Leaves: only the last one prunes.
	rig.fab.HostLeave(fGroup, 2)
	if !rig.comps[102].HasGroupState(fGroup) {
		t.Fatal("premature prune")
	}
	rig.fab.HostLeave(fGroup, 1)
	if rig.comps[102].HasGroupState(fGroup) {
		t.Fatal("last leave did not prune")
	}
}

func TestInjectStrictRPFRejectsWrongEntry(t *testing.T) {
	rig := newFabricRig(t, migp.DVMRP(), 101, 102)
	rig.bestExit = 102 // RPF expects entry at 102
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.fab.HostJoin(fGroup, 1)

	// Simulate tree data arriving at the WRONG border (101): its
	// component has no state, looks up the G-RIB (next hop internal 102)
	// and injects — which must fail RPF and encapsulate to 102.
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 102}
	rig.comps[101].HandlePeer(7, &wire.Data{Group: fGroup, Source: fSrc, TTL: 16, Payload: []byte("x")})
	if got := rig.fab.Stats().RPFDrops; got != 1 {
		t.Fatalf("RPF drops = %d, want 1", got)
	}
	// The encapsulated copy was decapsulated at 102 and delivered.
	if len(rig.delivered) == 0 {
		t.Fatal("members never received the packet")
	}
}

func TestInjectRelaxedRPFAcceptsAnyEntry(t *testing.T) {
	rig := newFabricRig(t, migp.PIMSM(0), 101, 102)
	rig.bestExit = 102
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.fab.HostJoin(fGroup, 1)
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 102}
	rig.comps[101].HandlePeer(7, &wire.Data{Group: fGroup, Source: fSrc, TTL: 16})
	if rig.fab.Stats().RPFDrops != 0 {
		t.Fatal("PIM-SM fabric must accept any entry border")
	}
	if len(rig.delivered) == 0 {
		t.Fatal("no delivery")
	}
}

func TestSendFromHostReachesAllBorders(t *testing.T) {
	rig := newFabricRig(t, migp.DVMRP(), 101, 102)
	rig.bestExit = 101
	// 102 is on the tree for the group (simulate a remote child join).
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comps[102].HandlePeer(8, &wire.GroupJoin{Group: fGroup})
	rig.peerSends[102] = nil

	rig.fab.SendFromHost(2, &wire.Data{Group: fGroup, Source: fSrc, TTL: 16})
	// 102 (on tree) forwarded to its child 8; 101 (stateless best exit —
	// external next hop 7) forwarded toward the root.
	found102, found101 := false, false
	for _, m := range rig.peerSends[102] {
		if _, ok := m.(*wire.Data); ok {
			found102 = true
		}
	}
	for _, m := range rig.peerSends[101] {
		if _, ok := m.(*wire.Data); ok {
			found101 = true
		}
	}
	if !found102 || !found101 {
		t.Fatalf("interior-origin data: tree border sent=%v, best exit sent=%v", found102, found101)
	}
}

func TestMemberNodesAndStats(t *testing.T) {
	rig := newFabricRig(t, migp.DVMRP(), 101)
	rig.bestExit = 101
	rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 5}} // root domain
	rig.fab.HostJoin(fGroup, 1)
	rig.fab.HostJoin(fGroup, 2)
	if got := rig.fab.MemberNodes(fGroup); len(got) != 2 {
		t.Fatalf("member nodes = %v", got)
	}
	rig.fab.SendFromHost(0, &wire.Data{Group: fGroup, Source: fSrc, TTL: 16})
	if rig.fab.Stats().HostDeliveries != 2 {
		t.Fatalf("host deliveries = %d", rig.fab.Stats().HostDeliveries)
	}
	if rig.fab.Stats().InteriorHops < 2 {
		t.Fatalf("interior hops = %d", rig.fab.Stats().InteriorHops)
	}
	if rig.fab.Stats().Injected != 1 {
		t.Fatalf("injected = %d", rig.fab.Stats().Injected)
	}
}

func TestHostLeaveUnknownGroupHarmless(t *testing.T) {
	rig := newFabricRig(t, migp.DVMRP(), 101)
	rig.fab.HostLeave(fGroup, 1) // must not panic
}
