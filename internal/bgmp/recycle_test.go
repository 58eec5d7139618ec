package bgmp

import (
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/wire"
)

// TestRecycledEntryCarriesNothing tears down group A's (*,G) entry while it
// has children, an armed backup parent, two shared-clone (S,G) entries and
// built target lists, and then builds group B's entry, B's shared clone and
// an (S,G) branch at the same router from the free list they went to. B's
// listing, backup and first sends are B's alone, and the branch that takes a
// recycled clone is a branch: its prune tears it down instead of keeping it
// as a negative cache. Reset leaves nothing on the list.
func TestRecycledEntryCarriesNothing(t *testing.T) {
	gA, gB, gC, gY, gZ := groupG, groupG+1, groupG+2, groupG+3, groupG+4
	srcT, srcU := sourceS+1, sourceS+2
	rig := newRig(1, 5, false)
	backups := map[addr.Addr]bgp.Entry{gA: {Route: wire.Route{Origin: 9}, NextHop: 6}}
	rig.comp.cfg.LookupGroupBackup = func(g addr.Addr) (best, backup bgp.Entry, ok, hasBackup bool) {
		best, ok = rig.groups[g]
		backup, hasBackup = backups[g]
		return best, backup, ok, ok && hasBackup
	}
	for _, g := range []addr.Addr{gA, gY, gZ} {
		rig.groups[g] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	}
	rig.groups[gB] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 3}
	rig.srcs[srcT] = bgp.Entry{Route: wire.Route{Origin: 11}, NextHop: 4}
	sentTo := func(d *wire.Data) (peers []wire.RouterID, interior int) {
		rig.sent, rig.migp.injected = nil, nil
		rig.comp.Deliver(MIGPTarget, d)
		for _, s := range rig.sent {
			peers = append(peers, s.to)
		}
		return peers, len(rig.migp.injected)
	}

	// Standing trees, so the router holds live state the list is bounded by.
	rig.comp.HandlePeer(20, &wire.GroupJoin{Group: gY})
	rig.comp.HandlePeer(20, &wire.GroupJoin{Group: gZ})
	// A's entry: three children, a backup, two shared clones, target lists.
	rig.comp.HandlePeer(8, &wire.GroupJoin{Group: gA})
	rig.comp.HandlePeer(9, &wire.GroupJoin{Group: gA})
	rig.comp.LocalJoin(gA)
	rig.comp.HandlePeer(10, &wire.SourceJoin{Group: gA, Source: sourceS})
	rig.comp.HandlePeer(11, &wire.SourceJoin{Group: gA, Source: srcU})
	if backup, ok := rig.comp.BackupParent(gA); !ok || backup != PeerTarget(6) {
		t.Fatalf("A's backup = %v ok=%v, want peer(6)", backup, ok)
	}
	for _, s := range []addr.Addr{sourceS, srcT, srcU} {
		rig.comp.Deliver(PeerTarget(8), &wire.Data{Group: gA, Source: s, TTL: 16})
	}
	rig.comp.HandlePeer(8, &wire.GroupPrune{Group: gA})
	rig.comp.HandlePeer(9, &wire.GroupPrune{Group: gA})
	rig.comp.LocalLeave(gA)
	if rig.comp.HasGroupState(gA) {
		t.Fatal("A's entry survived its last prune")
	}
	if n := len(rig.comp.free); n != 3 {
		t.Fatalf("%d entries on the free list after A's teardown, want A's (*,G) and its two clones", n)
	}

	// B's (*,G) entry and its shared clone take A's entry and a clone of A's.
	rig.comp.HandlePeer(12, &wire.GroupJoin{Group: gB})
	rig.comp.HandlePeer(12, &wire.SourceJoin{Group: gB, Source: sourceS})
	parent, children, ok := rig.comp.GroupEntry(gB)
	if !ok || parent != PeerTarget(3) || !reflect.DeepEqual(children, []Target{PeerTarget(12)}) {
		t.Fatalf("B's entry = %v %v ok=%v, want peer(3) [peer(12)]", parent, children, ok)
	}
	if backup, ok := rig.comp.BackupParent(gB); ok {
		t.Fatalf("B carries a backup parent %v; its lookup armed none", backup)
	}
	for _, s := range []addr.Addr{srcT, sourceS} { // through the (*,G) entry, then the clone
		peers, interior := sentTo(&wire.Data{Group: gB, Source: s, TTL: 16})
		if !reflect.DeepEqual(peers, []wire.RouterID{3, 12}) || interior != 0 {
			t.Fatalf("B's first send from %v went to peers %v and %d interior copies, want [3 12] and none",
				s, peers, interior)
		}
	}

	// The (S,G) branch takes A's other clone.
	rig.comp.HandlePeer(13, &wire.SourceJoin{Group: gC, Source: srcT})
	if parent, children, ok := rig.comp.SourceEntry(srcT, gC); !ok || parent != PeerTarget(4) ||
		!reflect.DeepEqual(children, []Target{PeerTarget(13)}) {
		t.Fatalf("branch entry = %v %v ok=%v, want peer(4) [peer(13)]", parent, children, ok)
	}
	if n := len(rig.comp.free); n != 0 {
		t.Fatalf("%d entries left on the free list; B, its clone and the branch should have taken all three", n)
	}
	rig.comp.HandlePeer(13, &wire.SourcePrune{Group: gC, Source: srcT})
	if _, _, ok := rig.comp.SourceEntry(srcT, gC); ok {
		t.Fatal("the branch's prune left a negative cache: the recycled entry kept sharedClone")
	}

	rig.comp.HandlePeer(12, &wire.GroupPrune{Group: gB})
	if len(rig.comp.free) == 0 {
		t.Fatal("B's teardown gave nothing back; Reset would be checked against an empty list")
	}
	rig.comp.Reset()
	if n := len(rig.comp.free); n != 0 {
		t.Fatalf("Reset left %d free entries", n)
	}
}

// TestRecycledEntriesBoundedByLiveState tears down every one of a router's
// trees: the free list is pushed only while it is no longer than the (*,G)
// entries left, so a router that held n trees and lost them keeps half.
func TestRecycledEntriesBoundedByLiveState(t *testing.T) {
	const n = 40
	rig := newRig(1, 5, false)
	for i := 0; i < n; i++ {
		g := groupG + addr.Addr(i)
		rig.groups[g] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
		rig.comp.HandlePeer(8, &wire.GroupJoin{Group: g})
	}
	for i := 0; i < n; i++ {
		rig.comp.HandlePeer(8, &wire.GroupPrune{Group: groupG + addr.Addr(i)})
	}
	if groups, _ := rig.comp.StateSize(); groups != 0 || len(rig.comp.free) != n/2 {
		t.Fatalf("%d entries live and %d free after every prune, want 0 and %d", groups, len(rig.comp.free), n/2)
	}
}
