package bgmp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mascbgmp/internal/bgp"
	"mascbgmp/internal/wire"
)

// oracleTargets is the forwarding list as it was over a child map: collect the keys
// of the parent and every child once, then sort the interior first and the
// peers by router.
func oracleTargets(parent Target, children map[Target]bool) []Target {
	seen := map[Target]bool{parent.key(): true}
	out := []Target{parent.key()}
	for c := range children {
		if k := c.key(); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MIGP != out[j].MIGP {
			return out[i].MIGP
		}
		return out[i].Router < out[j].Router
	})
	return out
}

// TestSortedChildrenMatchMap drives an entry's child list and parent with
// random adds, removals, interior sweeps and reparentings, and requires
// after every step what the map it replaced gave: the same child set, the
// listing in router order with the interior first on a tie, and the same
// forwarding list, parent merged in and interior targets folded into one,
// appended after what a reused dst already holds. The children sit in an array of their size class throughout: the entry's
// own up to one child, else the next power of two.
func TestSortedChildrenMatchMap(t *testing.T) {
	var c Component
	var dst []Target
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		target := func() Target { // routers 1–5 as peers and siblings, and the interior
			switch r := wire.RouterID(1 + rng.Intn(5)); rng.Intn(3) {
			case 0:
				return MIGPTarget
			case 1:
				return MIGPToward(r)
			default:
				return PeerTarget(r)
			}
		}
		e, want := &entry{upstream: upstream{parent: target()}}, map[Target]bool{}
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				x := target()
				c.addChildLocked(e, x)
				want[x] = true
			case op < 8:
				x := target()
				c.removeChildLocked(e, x)
				delete(want, x)
			case op < 9:
				c.removeMIGPChildrenLocked(e)
				for x := range want {
					if x.MIGP {
						delete(want, x)
					}
				}
			default:
				e.upstream = upstream{parent: target()}
			}
			for x := range want {
				if !e.hasChild(x) {
					t.Fatalf("seed %d step %d: child %v lost from %v", seed, step, x, e.children)
				}
			}
			if n := len(e.children); n > 0 && cap(e.children) != childClass(n) {
				t.Fatalf("seed %d step %d: %d children in an array of capacity %d, want %d",
					seed, step, n, cap(e.children), childClass(n))
			}
			_, listed, _ := e.listing()
			sorted := make([]Target, 0, len(want))
			for x := range want {
				sorted = append(sorted, x)
			}
			sort.Slice(sorted, func(i, j int) bool {
				if sorted[i].Router != sorted[j].Router {
					return sorted[i].Router < sorted[j].Router
				}
				return sorted[i].MIGP && !sorted[j].MIGP
			})
			if len(listed) != len(sorted) || (len(sorted) > 0 && !reflect.DeepEqual(listed, sorted)) {
				t.Fatalf("seed %d step %d: listing %v, want %v", seed, step, listed, sorted)
			}
			held := PeerTarget(wire.RouterID(100 + step))
			dst = e.appendTargets(append(dst[:0], held))
			if got, want := dst[1:], oracleTargets(e.parent, want); dst[0] != held || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: appendTargets after %v gave %v, the map gave %v", seed, step, held, dst, want)
			}
		}
	}
}

// TestWideFanOutSpillsWithoutAllocating forwards through an entry with more
// targets than a forwarder lists on its stack (fanOutStack): 70 peer
// children and the interior under a peer parent. A packet from each target
// reaches every other target exactly once and never its arrival, and once
// warm a send allocates nothing: the list spills into an array off the
// Component's free lists, which goes back after the sends, also when the
// router is Reset while they go out.
func TestWideFanOutSpillsWithoutAllocating(t *testing.T) {
	const parent, first, last = 7, 10, 79 // peer routers; 70 children
	rig := newRig(1, 5, false)
	rig.samePackets = true
	rig.groups[groupG] = bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: parent}
	rig.comp.LocalJoin(groupG)
	for r := wire.RouterID(first); r <= last; r++ {
		rig.comp.HandlePeer(r, &wire.GroupJoin{Group: groupG})
	}
	froms := []Target{MIGPTarget, PeerTarget(parent)}
	for r := wire.RouterID(first); r <= last; r++ {
		froms = append(froms, PeerTarget(r))
	}
	if len(froms) <= fanOutStack {
		t.Fatalf("%d targets fit a forwarder's stack list of %d; the test needs more", len(froms), fanOutStack)
	}
	d := &wire.Data{Group: groupG, Source: sourceS, TTL: 16}
	send := func(from Target) {
		rig.sent, rig.migp.injected = rig.sent[:0], rig.migp.injected[:0]
		rig.comp.Deliver(from, d)
	}
	for _, from := range froms {
		send(from)
		got := map[Target]int{}
		for _, s := range rig.sent {
			got[PeerTarget(s.to)]++
		}
		if n := len(rig.migp.injected); n > 0 {
			got[MIGPTarget] = n
		}
		for _, to := range froms {
			if want := 1; to == from {
				want = 0
				if got[to] != want {
					t.Fatalf("from %v: the packet went back to its arrival %d times", from, got[to])
				}
			} else if got[to] != want {
				t.Fatalf("from %v: %v got %d copies, want 1", from, to, got[to])
			}
		}
		if len(got) != len(froms)-1 {
			t.Fatalf("from %v: copies went to %d targets, want %d", from, len(got), len(froms)-1)
		}
	}
	for _, from := range []Target{MIGPTarget, PeerTarget(parent), PeerTarget(first)} {
		if n := testing.AllocsPerRun(20, func() { send(from) }); n != 0 {
			t.Errorf("from %v: a send through %d targets allocates %v", from, len(froms), n)
		}
	}
	// A crash (Reset) while the copies go out drops the free lists the
	// spill came off; it goes back onto fresh ones.
	rig.comp.eg.SendPeer = func(wire.RouterID, wire.Message) { rig.comp.Reset() }
	rig.comp.Deliver(MIGPTarget, d)
}
