package migp_test

import (
	"slices"
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

// countingBorder counts the membership changes the fabric reports to one
// border, passing them on.
type countingBorder struct {
	migp.Border
	joins, leaves int
}

func (b *countingBorder) LocalJoin(g addr.Addr)  { b.joins++; b.Border.LocalJoin(g) }
func (b *countingBorder) LocalLeave(g addr.Addr) { b.leaves++; b.Border.LocalLeave(g) }

// TestRecycledMemberSetLooksNeverJoined: when a group's last interior
// member leaves, HostLeave keeps the set's counts array for the next first
// member, and a first member's nodes is a view of the fabric's node IDs. To
// everything that reads it the emptied group looks as if no host had ever
// joined — no member nodes, no host delivery, the same floods and counters
// — and a rejoin, at another node and beside a second group's first member
// on the recycled array, reports the first member to the best exit once, on
// every protocol.
func TestRecycledMemberSetLooksNeverJoined(t *testing.T) {
	other := fGroup + 1
	for _, name := range []string{"cbt", "dvmrp", "mospf", "pimdm", "pimsm"} {
		type side struct {
			rig   *fabricRig
			proto *migp.Protocol
			exit  *countingBorder
		}
		var fresh, emptied side
		for _, s := range []*side{&fresh, &emptied} {
			s.proto = allProtocols()[name]
			s.rig = newFabricRig(t, s.proto, 101, 102)
			s.rig.bestExit = 101
			s.rig.gribs[fGroup] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
			s.rig.gribs[other] = s.rig.gribs[fGroup]
			s.exit = &countingBorder{Border: s.rig.comps[101]}
			s.rig.fab.SetComponent(101, s.exit)
		}
		f := emptied.rig.fab
		f.HostJoin(fGroup, 1)
		f.HostJoin(fGroup, 2)
		f.HostJoin(fGroup, 2)
		f.HostLeave(fGroup, 2)
		f.HostLeave(fGroup, 1)
		f.HostLeave(fGroup, 2)
		if emptied.exit.joins != 1 || emptied.exit.leaves != 1 {
			t.Fatalf("%s: best exit told of %d first members and %d last leaves, want 1 and 1",
				name, emptied.exit.joins, emptied.exit.leaves)
		}
		emptied.exit.joins, emptied.exit.leaves = 0, 0

		same := func(when string) {
			t.Helper()
			for _, s := range []side{fresh, emptied} {
				s.rig.delivered = nil
				s.rig.fab.SendFromHost(0, &wire.Data{Group: fGroup, Source: fSrc, TTL: 16})
			}
			if got, want := emptied.rig.fab.MemberNodes(fGroup), fresh.rig.fab.MemberNodes(fGroup); !slices.Equal(got, want) {
				t.Errorf("%s, %s: member nodes %v, never-emptied group's %v", name, when, got, want)
			}
			if got, want := emptied.rig.delivered, fresh.rig.delivered; !slices.Equal(got, want) {
				t.Errorf("%s, %s: delivered to %v, never-emptied group to %v", name, when, got, want)
			}
			if got, want := emptied.rig.fab.Stats(), fresh.rig.fab.Stats(); got != want {
				t.Errorf("%s, %s: stats %+v, never-emptied group's %+v", name, when, got, want)
			}
			if got, want := emptied.proto.Floods(), fresh.proto.Floods(); got != want {
				t.Errorf("%s, %s: %d floods, never-emptied group's %d", name, when, got, want)
			}
		}
		same("emptied")
		if n := len(emptied.rig.fab.MemberNodes(fGroup)); n != 0 || len(emptied.rig.delivered) != 0 {
			t.Errorf("%s: an emptied group has %d member nodes and %d deliveries", name, n, len(emptied.rig.delivered))
		}

		// A rejoin at another node, and a second group's first member beside
		// it: each takes a counts array the leaves kept, or a new one.
		for _, s := range []side{fresh, emptied} {
			s.rig.fab.HostJoin(fGroup, 2)
			s.rig.fab.HostJoin(other, 1)
			s.rig.fab.HostJoin(fGroup, 3)
		}
		if emptied.exit.joins != 2 {
			t.Errorf("%s: the rejoin and the other group's join told the best exit %d times, want once each", name, emptied.exit.joins)
		}
		if got := emptied.rig.fab.MemberNodes(other); !slices.Equal(got, []migp.Node{1}) {
			t.Errorf("%s: the other group's members %v, want [1]", name, got)
		}
		same("rejoined")
		if !slices.Equal(emptied.rig.delivered, []migp.Node{2, 3}) {
			t.Errorf("%s: a rejoined group delivered to %v, want [2 3]", name, emptied.rig.delivered)
		}
		for _, s := range []side{fresh, emptied} {
			s.rig.fab.HostLeave(fGroup, 2)
			s.rig.fab.HostLeave(other, 1)
			s.rig.fab.HostLeave(fGroup, 3)
		}
		same("emptied again")
		if n := len(emptied.rig.fab.MemberNodes(fGroup)); n != 0 || emptied.exit.leaves != 2 {
			t.Errorf("%s: emptied again, the group has %d member nodes and the best exit was told of %d last leaves, want 0 and 2",
				name, n, emptied.exit.leaves)
		}
	}
}
