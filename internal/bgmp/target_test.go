package bgmp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mascbgmp/internal/wire"
)

// oracleTargets is targets() as it was over a child map: collect the keys
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
// forwarding list, parent merged in and interior targets folded into one.
// The children sit in an array of their size class throughout: the entry's
// own up to one child, else the next power of two.
func TestSortedChildrenMatchMap(t *testing.T) {
	var c Component
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
				e.setUpstream(upstream{parent: target()})
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
			if got, want := e.targets(), oracleTargets(e.parent, want); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: targets %v, the map gave %v", seed, step, got, want)
			}
		}
	}
}
