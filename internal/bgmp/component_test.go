package bgmp

import (
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/wire"
)

var (
	groupG  = addr.MakeAddr(224, 0, 128, 1)
	sourceS = addr.MakeAddr(10, 1, 2, 3)
)

// fakeMIGP records the component's interactions with the interior protocol.
type fakeMIGP struct {
	joins, leaves []addr.Addr
	relays        []relayed
	injected      []wire.Data // copies: a packet is the sender's again, and reused, when Inject returns
	injectOK      bool
	expectedEntry wire.RouterID
}

type relayed struct {
	to  wire.RouterID
	msg wire.Message
}

func newFakeMIGP() *fakeMIGP { return &fakeMIGP{injectOK: true} }

func (f *fakeMIGP) JoinGroup(g addr.Addr)  { f.joins = append(f.joins, g) }
func (f *fakeMIGP) LeaveGroup(g addr.Addr) { f.leaves = append(f.leaves, g) }
func (f *fakeMIGP) RelayToBorder(to wire.RouterID, m wire.Message) {
	f.relays = append(f.relays, relayed{to, kept(m)})
}

// kept returns the copy of a message a recorder keeps: a join, a prune or a
// packet handed to SendPeer or RelayToBorder is the sender's again, and may
// be reused, when the call returns (a §5.3 relay, and handleEncap's native
// copy sent on to its (*,G) peers, are recycled spares).
func kept(m wire.Message) wire.Message {
	cp, err := wire.Decode(wire.Encode(m))
	if err != nil {
		panic(err)
	}
	return cp
}
func (f *fakeMIGP) Inject(d *wire.Data) bool {
	if !f.injectOK {
		return false
	}
	f.injected = append(f.injected, *d)
	return true
}
func (f *fakeMIGP) ExpectedEntry(addr.Addr) wire.RouterID { return f.expectedEntry }

// testRig wires a Component with a fake MIGP, scripted RIB lookups, and a
// peer-message recorder.
type testRig struct {
	comp   *Component
	migp   *fakeMIGP
	sent   []relayed // to external peers
	groups map[addr.Addr]bgp.Entry
	srcs   map[addr.Addr]bgp.Entry
	// samePackets records a packet sent to a peer as it is, not a copy,
	// for a test that checks by identity that it went on unchanged or
	// counts what a send allocates. Only for sends that are no relay:
	// handleEncap sends its peers a recycled spare.
	samePackets bool
}

func newRig(router wire.RouterID, domain wire.DomainID, branches bool) *testRig {
	r := &testRig{
		migp:   newFakeMIGP(),
		groups: map[addr.Addr]bgp.Entry{},
		srcs:   map[addr.Addr]bgp.Entry{},
	}
	r.comp = New(Config{
		Router: router,
		Domain: domain,
		LookupGroup: func(g addr.Addr) (bgp.Entry, bool) {
			e, ok := r.groups[g]
			return e, ok
		},
		LookupSource: func(s addr.Addr) (bgp.Entry, bool) {
			e, ok := r.srcs[s]
			return e, ok
		},
		Internal: func(id wire.RouterID) bool { return id >= 100 }, // convention: IDs >= 100 are internal
		SendPeer: func(to wire.RouterID, m wire.Message) {
			if _, ok := m.(*wire.Data); !ok || !r.samePackets {
				m = kept(m)
			}
			r.sent = append(r.sent, relayed{to, m})
		},
		MIGP:                r.migp,
		BuildSourceBranches: branches,
	})
	return r
}

// Convention used in these tests: the component is router 1 in domain 5;
// external peers have IDs < 100; internal border routers have IDs >= 100.

func TestLocalJoinPropagatesTowardRoot(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7} // root domain 9 via external peer 7
	rig.comp.LocalJoin(groupG)

	parent, children, ok := rig.comp.GroupEntry(groupG)
	if !ok {
		t.Fatal("entry missing")
	}
	if parent != PeerTarget(7) {
		t.Fatalf("parent = %v", parent)
	}
	if len(children) != 1 || !children[0].MIGP {
		t.Fatalf("children = %v, want [migp]", children)
	}
	if len(rig.sent) != 1 || rig.sent[0].to != 7 {
		t.Fatalf("sent = %v", rig.sent)
	}
	if _, isJoin := rig.sent[0].msg.(*wire.GroupJoin); !isJoin {
		t.Fatalf("message = %T", rig.sent[0].msg)
	}
}

func TestJoinAtRootDomainJoinsInterior(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 5}} // we are the root domain
	rig.comp.HandlePeer(7, &wire.GroupJoin{Group: groupG})

	parent, _, ok := rig.comp.GroupEntry(groupG)
	if !ok || !parent.MIGP {
		t.Fatalf("parent = %v ok=%v, want MIGP (root domain)", parent, ok)
	}
	if len(rig.migp.joins) != 1 || rig.migp.joins[0] != groupG {
		t.Fatalf("MIGP joins = %v", rig.migp.joins)
	}
	if len(rig.sent) != 0 {
		t.Fatalf("root domain must not propagate joins: %v", rig.sent)
	}
}

func TestJoinWithInternalNextHopRelaysThroughMIGP(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 103} // via internal border 103
	rig.comp.HandlePeer(7, &wire.GroupJoin{Group: groupG})

	parent, _, _ := rig.comp.GroupEntry(groupG)
	if !parent.MIGP || parent.Router != 103 {
		t.Fatalf("parent = %v, want migp(->103)", parent)
	}
	if len(rig.migp.relays) != 1 || rig.migp.relays[0].to != 103 {
		t.Fatalf("relays = %v", rig.migp.relays)
	}
	if _, ok := rig.migp.relays[0].msg.(*wire.GroupJoin); !ok {
		t.Fatalf("relayed %T", rig.migp.relays[0].msg)
	}
}

func TestPruneTearsDownAndPropagates(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comp.HandlePeer(8, &wire.GroupJoin{Group: groupG})
	rig.comp.HandlePeer(9, &wire.GroupJoin{Group: groupG})
	rig.sent = nil

	rig.comp.HandlePeer(8, &wire.GroupPrune{Group: groupG})
	if !rig.comp.HasGroupState(groupG) {
		t.Fatal("entry must survive while children remain")
	}
	if len(rig.sent) != 0 {
		t.Fatalf("no upstream prune while children remain: %v", rig.sent)
	}
	rig.comp.HandlePeer(9, &wire.GroupPrune{Group: groupG})
	if rig.comp.HasGroupState(groupG) {
		t.Fatal("entry must be deleted when the last child leaves")
	}
	if len(rig.sent) != 1 || rig.sent[0].to != 7 {
		t.Fatalf("sent = %v, want prune to parent 7", rig.sent)
	}
	if _, ok := rig.sent[0].msg.(*wire.GroupPrune); !ok {
		t.Fatalf("message = %T", rig.sent[0].msg)
	}
}

func TestPruneAtRootLeavesInterior(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 5}}
	rig.comp.HandlePeer(7, &wire.GroupJoin{Group: groupG})
	rig.comp.HandlePeer(7, &wire.GroupPrune{Group: groupG})
	if len(rig.migp.leaves) != 1 {
		t.Fatalf("MIGP leaves = %v", rig.migp.leaves)
	}
}

func TestJoinWithoutGRIBRouteIgnored(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.comp.HandlePeer(7, &wire.GroupJoin{Group: groupG})
	if rig.comp.HasGroupState(groupG) {
		t.Fatal("join without a G-RIB route must not create state")
	}
	if len(rig.sent) != 0 {
		t.Fatal("nothing should be sent")
	}
}

func data(ttl uint8) *wire.Data {
	return &wire.Data{Group: groupG, Source: sourceS, TTL: ttl, Payload: []byte("x")}
}

// buildTree creates a (*,G) entry at the rig with parent peer 7 and
// children peer 8 + MIGP.
func buildTree(rig *testRig) {
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comp.HandlePeer(8, &wire.GroupJoin{Group: groupG})
	rig.comp.LocalJoin(groupG)
	rig.sent = nil
	rig.migp.injected = nil
}

func TestBidirectionalForwarding(t *testing.T) {
	cases := []struct {
		name      string
		from      Target
		wantPeers []wire.RouterID
		wantMIGP  int
	}{
		{"from child peer", PeerTarget(8), []wire.RouterID{7}, 1},
		{"from parent peer", PeerTarget(7), []wire.RouterID{8}, 1},
		{"from interior", MIGPTarget, []wire.RouterID{7, 8}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(1, 5, false)
			rig.samePackets = true
			buildTree(rig)
			in := data(16)
			rig.comp.Deliver(tc.from, in)
			var peers []wire.RouterID
			for _, s := range rig.sent {
				if d, ok := s.msg.(*wire.Data); ok {
					peers = append(peers, s.to)
					// Every peer is handed the packet itself, as it came:
					// the hop's TTL is the receiver's to spend (TestTTLExpiry
					// holds the sender's half, the refusal at TTL 1).
					if d != in || d.TTL != 16 {
						t.Errorf("peer %d was sent %p with TTL %d, want the packet delivered (%p) with its TTL 16", s.to, d, d.TTL, in)
					}
				}
			}
			if !reflect.DeepEqual(peers, tc.wantPeers) {
				t.Errorf("forwarded to peers %v, want %v", peers, tc.wantPeers)
			}
			if len(rig.migp.injected) != tc.wantMIGP {
				t.Errorf("MIGP injections = %d, want %d", len(rig.migp.injected), tc.wantMIGP)
			}
		})
	}
}

func TestDataNeverEchoesToSender(t *testing.T) {
	rig := newRig(1, 5, false)
	buildTree(rig)
	rig.comp.Deliver(PeerTarget(8), data(16))
	for _, s := range rig.sent {
		if s.to == 8 {
			t.Fatal("data echoed to the target it came from")
		}
	}
}

func TestOffTreeDataFromPeerTransitsDomain(t *testing.T) {
	// The paper's E1→A1 example: stateless border injects into the MIGP so
	// the packet crosses the domain toward the best exit.
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 103} // best exit is internal 103
	rig.comp.Deliver(PeerTarget(7), data(16))
	if len(rig.migp.injected) != 1 {
		t.Fatalf("injections = %d, want 1 (transit)", len(rig.migp.injected))
	}
	if len(rig.sent) != 0 {
		t.Fatalf("sent = %v, want none", rig.sent)
	}
}

func TestOffTreeDataFromPeerForwardsTowardRoot(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comp.Deliver(PeerTarget(3), data(16))
	if len(rig.sent) != 1 || rig.sent[0].to != 7 {
		t.Fatalf("sent = %v, want data to 7", rig.sent)
	}
}

// TestOffTreeDataFromTheParentDropped: a packet from the peer this router's
// way to the root leads through, at a router with no state for the group,
// came down a branch the router has left while its prune was in flight. The
// peer served its other targets already, so nothing goes back to it.
func TestOffTreeDataFromTheParentDropped(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comp.Deliver(PeerTarget(7), data(16))
	if len(rig.sent) != 0 || len(rig.migp.injected) != 0 {
		t.Fatalf("sent = %v and %d injected, want the packet dropped", rig.sent, len(rig.migp.injected))
	}
}

func TestOffTreeInteriorDataOnlyBestExitForwards(t *testing.T) {
	// Best exit (external next hop): forward.
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comp.Deliver(MIGPTarget, data(16))
	if len(rig.sent) != 1 || rig.sent[0].to != 7 {
		t.Fatalf("best exit: sent = %v", rig.sent)
	}
	// Not best exit (internal next hop): drop.
	rig2 := newRig(1, 5, false)
	rig2.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 103}
	rig2.comp.Deliver(MIGPTarget, data(16))
	if len(rig2.sent) != 0 || len(rig2.migp.injected) != 0 {
		t.Fatal("non-best-exit stateless border must drop interior data")
	}
}

func TestOffTreeDataAtRootDomainInjected(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 5}}
	rig.comp.Deliver(PeerTarget(3), data(16))
	if len(rig.migp.injected) != 1 {
		t.Fatal("root-domain border should hand off-tree data to the interior")
	}
}

func TestDataWithoutRouteDropped(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.comp.Deliver(PeerTarget(3), data(16))
	if len(rig.sent) != 0 || len(rig.migp.injected) != 0 {
		t.Fatal("data without G-RIB route must be dropped")
	}
}

func TestTTLExpiry(t *testing.T) {
	rig := newRig(1, 5, false)
	buildTree(rig)
	rig.comp.Deliver(PeerTarget(8), data(1)) // TTL 1: still injectable interior, no peer hop
	for _, s := range rig.sent {
		if _, ok := s.msg.(*wire.Data); ok {
			t.Fatal("TTL 1 packet must not cross another inter-domain hop")
		}
	}
	if len(rig.migp.injected) != 1 {
		t.Fatal("TTL 1 packet may still be delivered into the domain")
	}
	rig.comp.Deliver(PeerTarget(8), data(0))
	if len(rig.migp.injected) != 1 {
		t.Fatal("TTL 0 packet must be dropped entirely")
	}
}

func TestSourceJoinOnSharedTreeStopsAndCopies(t *testing.T) {
	rig := newRig(1, 5, false)
	buildTree(rig) // parent 7, children {8, MIGP}
	rig.comp.HandlePeer(9, &wire.SourceJoin{Group: groupG, Source: sourceS})

	parent, children, ok := rig.comp.SourceEntry(sourceS, groupG)
	if !ok {
		t.Fatal("(S,G) entry missing")
	}
	if parent != PeerTarget(7) {
		t.Fatalf("(S,G) parent = %v, want copied shared-tree parent", parent)
	}
	has := map[Target]bool{}
	for _, c := range children {
		has[c] = true
	}
	if !has[PeerTarget(8)] || !has[MIGPTarget] || !has[PeerTarget(9)] {
		t.Fatalf("(S,G) children = %v", children)
	}
	if len(rig.sent) != 0 {
		t.Fatalf("on-tree source join must not propagate: %v", rig.sent)
	}
}

func TestSourceJoinOffTreePropagatesTowardSource(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.srcs[sourceS] = bgp.Entry{Route: wire.Route{Origin: 11}, NextHop: 4}
	rig.comp.HandlePeer(9, &wire.SourceJoin{Group: groupG, Source: sourceS})

	parent, _, ok := rig.comp.SourceEntry(sourceS, groupG)
	if !ok || parent != PeerTarget(4) {
		t.Fatalf("(S,G) parent = %v ok=%v, want peer 4", parent, ok)
	}
	if len(rig.sent) != 1 || rig.sent[0].to != 4 {
		t.Fatalf("sent = %v, want source join to 4", rig.sent)
	}
	if _, ok := rig.sent[0].msg.(*wire.SourceJoin); !ok {
		t.Fatalf("msg = %T", rig.sent[0].msg)
	}
}

func TestSourceJoinStopsAtSourceDomain(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.srcs[sourceS] = bgp.Entry{Route: wire.Route{Origin: 5}} // source in our domain
	rig.comp.HandlePeer(9, &wire.SourceJoin{Group: groupG, Source: sourceS})
	if len(rig.sent) != 0 {
		t.Fatalf("source-domain join must not propagate: %v", rig.sent)
	}
	if _, _, ok := rig.comp.SourceEntry(sourceS, groupG); !ok {
		t.Fatal("(S,G) state missing at source domain")
	}
}

func TestSGDataPrefersSourceEntry(t *testing.T) {
	rig := newRig(1, 5, false)
	buildTree(rig)
	// Branch child 9 joins (S,G); data from the shared-tree parent 7 must
	// now also reach 9.
	rig.comp.HandlePeer(9, &wire.SourceJoin{Group: groupG, Source: sourceS})
	rig.sent = nil
	rig.comp.Deliver(PeerTarget(7), data(16))
	got := map[wire.RouterID]bool{}
	for _, s := range rig.sent {
		if _, ok := s.msg.(*wire.Data); ok {
			got[s.to] = true
		}
	}
	if !got[8] || !got[9] {
		t.Fatalf("data peers = %v, want 8 and 9", got)
	}
}

func TestSourcePruneStopsDuplicates(t *testing.T) {
	rig := newRig(1, 5, false)
	buildTree(rig) // parent 7, children {8, MIGP}
	// Child 8 prunes source S (it gets S via its own branch now).
	rig.comp.HandlePeer(8, &wire.SourcePrune{Group: groupG, Source: sourceS})
	rig.sent = nil
	rig.comp.Deliver(PeerTarget(7), data(16))
	for _, s := range rig.sent {
		if d, ok := s.msg.(*wire.Data); ok && s.to == 8 && d.Source == sourceS {
			t.Fatal("pruned child still received S's data")
		}
	}
	// Other sources still flow to 8 via the (*,G) entry.
	rig.sent = nil
	other := &wire.Data{Group: groupG, Source: addr.MakeAddr(10, 9, 9, 9), TTL: 16}
	rig.comp.Deliver(PeerTarget(7), other)
	found := false
	for _, s := range rig.sent {
		if _, ok := s.msg.(*wire.Data); ok && s.to == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("(*,G) forwarding broken by source prune")
	}
}

func TestSourcePruneBranchTeardownPropagates(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.srcs[sourceS] = bgp.Entry{Route: wire.Route{Origin: 11}, NextHop: 4}
	rig.comp.HandlePeer(9, &wire.SourceJoin{Group: groupG, Source: sourceS})
	rig.sent = nil
	rig.comp.HandlePeer(9, &wire.SourcePrune{Group: groupG, Source: sourceS})
	if _, _, ok := rig.comp.SourceEntry(sourceS, groupG); ok {
		t.Fatal("(S,G) branch state must be torn down")
	}
	if len(rig.sent) != 1 || rig.sent[0].to != 4 {
		t.Fatalf("sent = %v, want source prune to 4", rig.sent)
	}
	if _, ok := rig.sent[0].msg.(*wire.SourcePrune); !ok {
		t.Fatalf("msg = %T", rig.sent[0].msg)
	}
}

func TestRPFFailureEncapsulates(t *testing.T) {
	// Fig 3(b): F1 is on the shared tree; interior RPF for S expects entry
	// via F2 (internal router 103). Injection fails → encapsulate to 103.
	rig := newRig(1, 5, false)
	buildTree(rig)
	rig.migp.injectOK = false
	rig.migp.expectedEntry = 103
	rig.comp.Deliver(PeerTarget(7), data(16))
	found := false
	for _, r := range rig.migp.relays {
		if d, ok := r.msg.(*wire.Data); ok && d.Encap && r.to == 103 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected encapsulated relay to 103, got %v", rig.migp.relays)
	}
}

// TestDecapsulatedRelayReachesTreePeers: F2 of Fig 3(b) decapsulates a
// §5.3 relay from F1 (103), injects it, and sends it on to the peers it
// holds on the shared tree itself. Each copy is the native packet, its
// fields intact, although the router builds it in a spare it reuses.
func TestDecapsulatedRelayReachesTreePeers(t *testing.T) {
	rig := newRig(1, 5, false)
	buildTree(rig)
	rig.comp.Deliver(MIGPToward(103), &wire.Data{Group: groupG, Source: sourceS, TTL: 16, Payload: []byte("x"), Encap: true})
	want := wire.Data{Group: groupG, Source: sourceS, TTL: 16, Payload: []byte("x")}
	if len(rig.migp.injected) != 1 || !reflect.DeepEqual(rig.migp.injected[0], want) {
		t.Fatalf("injected %v, want the native packet %v once", rig.migp.injected, want)
	}
	var peers []wire.RouterID
	for _, s := range rig.sent {
		d, ok := s.msg.(*wire.Data)
		if !ok {
			continue
		}
		peers = append(peers, s.to)
		if !reflect.DeepEqual(*d, want) {
			t.Errorf("peer %d was sent %+v, want %+v", s.to, *d, want)
		}
	}
	if !reflect.DeepEqual(peers, []wire.RouterID{7, 8}) {
		t.Errorf("decapsulated packet went to peers %v, want [7 8]", peers)
	}
}

// TestOffTreeEncapsulationLeavesLaterTreeCopiesAlone: a router with no
// state for the group encapsulates a peer's packet to the border the
// interior expects its source at (103), on its way toward the root. A peer
// child then joins, and an interior copy of the same flow must reach it.
// Only an on-tree encapsulator marks the flow as its own reflux: off the
// tree, forwardOffTree already keeps an interior copy from going back, and
// a mark made there outlived the state it was made without, so the router
// dropped every interior copy of the flow once it joined the tree.
func TestOffTreeEncapsulationLeavesLaterTreeCopiesAlone(t *testing.T) {
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 103}
	rig.migp.injectOK = false
	rig.migp.expectedEntry = 103
	rig.comp.Deliver(PeerTarget(3), data(16))
	if len(rig.migp.relays) != 1 || rig.migp.relays[0].to != 103 {
		t.Fatalf("off-tree relays = %v, want the packet encapsulated to 103", rig.migp.relays)
	}
	if d, ok := rig.migp.relays[0].msg.(*wire.Data); !ok || !d.Encap {
		t.Fatalf("relayed %v, want an encapsulated packet", rig.migp.relays[0].msg)
	}

	rig.comp.HandlePeer(8, &wire.GroupJoin{Group: groupG})
	if parent, _, ok := rig.comp.GroupEntry(groupG); !ok || parent != MIGPToward(103) {
		t.Fatalf("after peer 8's join: parent = %v ok=%v, want the interior toward 103", parent, ok)
	}
	rig.sent = nil
	rig.comp.Deliver(MIGPTarget, data(16))
	for _, s := range rig.sent {
		if d, ok := s.msg.(*wire.Data); ok && s.to == 8 && d.Source == sourceS {
			return
		}
	}
	t.Fatalf("an interior copy of the flow reached no peer child; sent %v", rig.sent)
}

func TestEncapReceiverBuildsBranchAndPrunesEncapsulator(t *testing.T) {
	// F2's side: receives encapsulated data from F1 (internal 101),
	// injects it, joins toward the source, and once native data arrives
	// on the branch, source-prunes F1.
	rig := newRig(1, 5, true)
	rig.srcs[sourceS] = bgp.Entry{Route: wire.Route{Origin: 11}, NextHop: 4}
	enc := data(16)
	enc.Encap = true
	rig.comp.HandleFromBorder(101, enc)

	if len(rig.migp.injected) != 1 || rig.migp.injected[0].Encap {
		t.Fatalf("decapsulated injection missing: %v", rig.migp.injected)
	}
	// A source join went toward the source (peer 4).
	foundJoin := false
	for _, s := range rig.sent {
		if _, ok := s.msg.(*wire.SourceJoin); ok && s.to == 4 {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Fatalf("no source join toward the source: %v", rig.sent)
	}
	// Native data arrives along the branch (from parent 4): F1 gets a
	// source prune via the MIGP relay.
	rig.migp.relays = nil
	rig.comp.Deliver(PeerTarget(4), data(16))
	foundPrune := false
	for _, r := range rig.migp.relays {
		if _, ok := r.msg.(*wire.SourcePrune); ok && r.to == 101 {
			foundPrune = true
		}
	}
	if !foundPrune {
		t.Fatalf("encapsulator not pruned: %v", rig.migp.relays)
	}
}

func TestEncapWithoutBranchesJustDecapsulates(t *testing.T) {
	rig := newRig(1, 5, false)
	enc := data(16)
	enc.Encap = true
	rig.comp.HandleFromBorder(101, enc)
	if len(rig.migp.injected) != 1 {
		t.Fatal("decapsulation should inject")
	}
	if len(rig.sent) != 0 {
		t.Fatal("no branches should be built when disabled")
	}
}

func TestRelayedJoinFromBorder(t *testing.T) {
	// A3's side of the paper's example: join relayed through the MIGP
	// from A2 creates (*,G) with the MIGP as child and B1 (external 7)
	// as parent.
	rig := newRig(1, 5, false)
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	rig.comp.HandleFromBorder(102, &wire.GroupJoin{Group: groupG})
	parent, children, ok := rig.comp.GroupEntry(groupG)
	if !ok || parent != PeerTarget(7) {
		t.Fatalf("parent = %v ok=%v", parent, ok)
	}
	if len(children) != 1 || !children[0].MIGP {
		t.Fatalf("children = %v", children)
	}
	if len(rig.sent) != 1 {
		t.Fatalf("join should continue to B1: %v", rig.sent)
	}
}

func TestTargetStringAndKey(t *testing.T) {
	if MIGPTarget.String() != "migp" || PeerTarget(5).String() != "peer(5)" || MIGPToward(3).String() != "migp(->3)" {
		t.Fatal("target strings")
	}
	if MIGPToward(3).key() != MIGPTarget {
		t.Fatal("MIGP targets must collapse under key()")
	}
	if PeerTarget(5).key() != PeerTarget(5) {
		t.Fatal("peer keys must be identity")
	}
}
