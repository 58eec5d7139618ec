package bgmp

import (
	"fmt"
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// TestRecycledEntryCarriesNothing tears down group A's (*,G) entry while it
// has children, a runner-up in its G-RIB, two shared-clone (S,G) entries and
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
	if n := freeLen(&rig.comp.free); n != 3 {
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
	if n := freeLen(&rig.comp.free); n != 0 {
		t.Fatalf("%d entries left on the free list; B, its clone and the branch should have taken all three", n)
	}
	rig.comp.HandlePeer(13, &wire.SourcePrune{Group: gC, Source: srcT})
	if _, _, ok := rig.comp.SourceEntry(srcT, gC); ok {
		t.Fatal("the branch's prune left a negative cache: the recycled entry kept sharedClone")
	}

	rig.comp.HandlePeer(12, &wire.GroupPrune{Group: gB})
	if freeLen(&rig.comp.free) == 0 {
		t.Fatal("B's teardown gave nothing back; Reset would be checked against an empty list")
	}
	rig.comp.Reset()
	if n := freeLen(&rig.comp.free); n != 0 {
		t.Fatalf("Reset left %d free entries", n)
	}
}

// freeLen and freeMade read how many items a free list holds and how many
// were made for it. addr.FreeList exports neither: only these tests ask.
func freeLen[T any](l *addr.FreeList[T]) int {
	return reflect.ValueOf(l).Elem().FieldByName("items").Len()
}

func freeMade[T any](l *addr.FreeList[T]) int {
	return int(reflect.ValueOf(l).Elem().FieldByName("made").Int())
}

// TestRecycledEntriesBoundedByLiveState grows and shrinks a router's trees
// in waves — 40 joined, all pruned, 10 joined, 40 again, with children
// coming and going on each — and checks the recycling bound after every
// call: the entries live and free together never outnumber the most the
// router held live at once, and no free list of children arrays holds more
// arrays than were made for it. An entry made while the free list holds
// one, or one given back twice, breaks the bound.
func TestRecycledEntriesBoundedByLiveState(t *testing.T) {
	const n = 40
	rig := newRig(1, 5, false)
	comp := rig.comp
	for i := 0; i < n; i++ {
		rig.groups[groupG+addr.Addr(i)] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	}
	peak := 0
	check := func(when string) {
		t.Helper()
		live, _ := comp.StateSize()
		peak = max(peak, live)
		if free := freeLen(&comp.free); live+free > peak || freeMade(&comp.free) != peak {
			t.Fatalf("%s: %d entries live and %d free, %d made; the router held %d live at most",
				when, live, free, freeMade(&comp.free), peak)
		}
		for k, l := range comp.arrays {
			if freeLen(&l) > freeMade(&l) {
				t.Fatalf("%s: %d free children arrays of capacity %d, and %d made", when, freeLen(&l), 2<<k, freeMade(&l))
			}
		}
	}
	join := func(i int, peer wire.RouterID) {
		comp.HandlePeer(peer, &wire.GroupJoin{Group: groupG + addr.Addr(i)})
		check(fmt.Sprintf("join %d from %d", i, peer))
	}
	prune := func(i int, peer wire.RouterID) {
		comp.HandlePeer(peer, &wire.GroupPrune{Group: groupG + addr.Addr(i)})
		check(fmt.Sprintf("prune %d from %d", i, peer))
	}
	for _, wave := range []int{n, n / 4, n} {
		for i := 0; i < wave; i++ {
			for p := 0; p <= i%5; p++ { // 1 to 5 children: arrays of every class to 8
				join(i, wire.RouterID(8+p))
			}
		}
		for i := 0; i < wave; i += 2 {
			prune(i, 8) // children leave and come back
			join(i, 20)
		}
		for i := 0; i < wave; i++ {
			for p := 0; p <= i%5; p++ {
				prune(i, wire.RouterID(8+p))
			}
			prune(i, 20)
		}
		if groups, _ := comp.StateSize(); groups != 0 || freeLen(&comp.free) != peak {
			t.Fatalf("after wave %d: %d entries live and %d free, want 0 and %d", wave, groups, freeLen(&comp.free), peak)
		}
	}
	if peak != n {
		t.Fatalf("the router held %d entries live at most, want %d", peak, n)
	}
}

// TestEventOnlyBatchLeavesTheOutArrayAlone runs, with an observer, an
// operation that queues events but no message (a second child joining a
// standing entry), and while it emits them starts a join on another
// goroutine that sends its GroupJoin and holds it out. An operation that
// takes no message must leave the out array to the operations that do: had
// the first made the array the sender still iterates its own again, a third
// join would queue into it, and the sender would hand back what it found
// there in place of its message. Every join must come back to the free
// list, once.
func TestEventOnlyBatchLeavesTheOutArrayAlone(t *testing.T) {
	gA, gB, gC := groupG, groupG+1, groupG+2
	rig := newRig(1, 5, false)
	for _, g := range []addr.Addr{gA, gB, gC} {
		rig.groups[g] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}
	}
	rig.comp.LocalJoin(gA) // A's entry stands; its join is back on the free list
	sending, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	send := rig.comp.cfg.SendPeer
	rig.comp.eg.SendPeer = func(to wire.RouterID, m wire.Message) {
		send(to, m)
		if j, ok := m.(*wire.GroupJoin); ok && j.Group == gB {
			close(sending)
			<-release
		}
	}
	ob := obs.NewObserver()
	ob.Subscribe(func(e obs.Event) {
		if e.Kind == obs.BGMPJoin && e.Group == gA {
			go func() {
				rig.comp.LocalJoin(gB)
				close(done)
			}()
			<-sending
		}
	})
	rig.comp.cfg.Obs = ob
	rig.comp.HandlePeer(8, &wire.GroupJoin{Group: gA}) // events only, while B's join is out
	rig.comp.cfg.Obs = nil
	rig.comp.LocalJoin(gC)
	close(release)
	<-done

	rig.comp.mu.Lock()
	defer rig.comp.mu.Unlock()
	if n, made := freeLen(&rig.comp.joins), freeMade(&rig.comp.joins); n != made {
		t.Fatalf("%d joins on the free list of the %d made: a batch's join never came back", n, made)
	}
	seen := map[*wire.GroupJoin]bool{}
	for {
		j, ok := rig.comp.joins.Take()
		if !ok {
			break
		}
		if seen[j] {
			t.Fatal("one join is on the free list twice")
		}
		seen[j] = true
	}
}
