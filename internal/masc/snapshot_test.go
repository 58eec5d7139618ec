package masc

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// restart replaces domain d's node in the net with a fresh one restored
// from snap — the node crashed and came back with its durable state.
func (nn *nodeNet) restart(d wire.DomainID, topLevel bool, seed int64, snap Snapshot) *Node {
	if old := nn.nodes[d]; old != nil {
		old.Shutdown()
	}
	delete(nn.nodes, d)
	n := nn.add(d, topLevel, seed)
	n.Restore(snap)
	return n
}

func TestSnapshotRestoreMidWaitClaimStillMatures(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	if !a.RequestSpace(65536, 30*24*time.Hour) {
		t.Fatal("claim selection failed")
	}
	// Half the waiting period passes, then the node restarts.
	nn.run(24 * time.Hour)
	snap := a.Snapshot()
	if len(snap.Pending) != 1 {
		t.Fatalf("pending snapshot = %v, want 1 claim", snap.Pending)
	}
	a2 := nn.restart(1, true, 1, snap)

	// The time already served counts: the claim matures after the
	// REMAINING 24 hours, not a fresh 48.
	nn.run(24*time.Hour + time.Second)
	if len(nn.won[1]) != 1 {
		t.Fatalf("restored claim did not mature on schedule: won=%v", nn.won[1])
	}
	if len(a2.Holdings()) != 1 {
		t.Fatal("holding missing after restored claim matured")
	}
}

func TestSnapshotRestoreKeepsHoldings(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	a.RequestSpace(65536, 30*24*time.Hour)
	nn.run(49 * time.Hour)
	held := a.Holdings()
	if len(held) != 1 {
		t.Fatalf("setup: holdings = %v", held)
	}

	a2 := nn.restart(1, true, 1, a.Snapshot())
	got := a2.Holdings()
	if len(got) != 1 || got[0].Prefix != held[0].Prefix || !got[0].Expires.Equal(held[0].Expires) {
		t.Fatalf("restored holdings = %v, want %v", got, held)
	}
	// The expiry timer survives the restart: the holding lapses at its
	// original lifetime, announcing the release.
	nn.run(31 * 24 * time.Hour)
	if len(a2.Holdings()) != 0 {
		t.Fatal("restored holding did not expire at its original lifetime")
	}
	if len(nn.lost[1]) != 1 {
		t.Fatalf("lost = %v, want the expired range", nn.lost[1])
	}
}

func TestSnapshotRestoreKeepsSiblingView(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	b := nn.add(2, true, 2)
	a.AddSibling(2)
	b.AddSibling(1)
	// B claims; A hears it. After A restarts, its next claim must still
	// avoid B's (pending) range.
	if !b.RequestSpace(1<<16, 30*24*time.Hour) {
		t.Fatal("sibling claim failed")
	}
	snap := a.Snapshot()
	if len(snap.Heard) == 0 {
		t.Fatal("sibling claim not in snapshot")
	}
	a2 := nn.restart(1, true, 1, snap)
	a2.AddSibling(2)
	if !a2.RequestSpace(1<<16, 30*24*time.Hour) {
		t.Fatal("post-restart claim failed")
	}
	nn.run(49 * time.Hour)
	if len(nn.won[1]) != 1 || len(nn.won[2]) != 1 {
		t.Fatalf("won: a=%v b=%v", nn.won[1], nn.won[2])
	}
	if nn.won[1][0].Overlaps(nn.won[2][0]) {
		t.Fatalf("restored node forgot sibling claim: %v overlaps %v", nn.won[1][0], nn.won[2][0])
	}
}

func TestRestoreEmitsObservableEvent(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	ob := obs.NewObserver()
	n := NewNode(NodeConfig{
		Domain:   1,
		Clock:    clk,
		Rand:     rand.New(rand.NewSource(1)),
		TopLevel: true,
		Obs:      ob,
	})
	n.RequestSpace(1<<12, 24*time.Hour)
	n2 := NewNode(NodeConfig{
		Domain:   1,
		Clock:    clk,
		Rand:     rand.New(rand.NewSource(1)),
		TopLevel: true,
		Obs:      ob,
	})
	n2.Restore(n.Snapshot())
	if ob.Snapshot().Total(obs.MASCRestored) != 1 {
		t.Fatalf("masc.restored missing:\n%s", ob.Snapshot())
	}
}

func TestSnapshotIsCanonical(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 7)
	a.RequestSpace(1<<12, 30*24*time.Hour)
	a.RequestSpace(1<<10, 30*24*time.Hour)
	nn.run(49 * time.Hour)
	s1, s2 := a.Snapshot(), a.Snapshot()
	for i := range s1.Pending {
		if s1.Pending[i] != s2.Pending[i] {
			t.Fatal("pending order not canonical")
		}
	}
	for i := range s1.Holdings {
		if s1.Holdings[i] != s2.Holdings[i] {
			t.Fatal("holdings order not canonical")
		}
	}
	for i := range s1.Heard {
		if s1.Heard[i] != s2.Heard[i] {
			t.Fatal("heard order not canonical")
		}
	}
	_ = addr.Prefix{}
}

// TestRestoreReplacesLiveClaims restores a live node from its own snapshot
// with the claim's waiting period moved 12 h later. The claim must mature
// then, not when the claim it replaced was due, and the replaced claim's
// span must end.
func TestRestoreReplacesLiveClaims(t *testing.T) {
	nn := newNodeNet(t)
	ob := obs.NewObserver()
	ob.SetTracer(obs.NewTracer(1))
	a := NewNode(NodeConfig{Domain: 1, Clock: nn.clk, Rand: rand.New(rand.NewSource(1)),
		WaitPeriod: 48 * time.Hour, TopLevel: true, Obs: ob,
		OnWon: func(p addr.Prefix, _ time.Time) { nn.won[1] = append(nn.won[1], p) }})
	if !a.RequestSpace(1<<16, 30*24*time.Hour) {
		t.Fatal("claim selection failed")
	}
	snap := a.Snapshot()
	snap.Pending[0].MatureAt = snap.Pending[0].MatureAt.Add(12 * time.Hour)
	a.Restore(snap)

	nn.run(48*time.Hour + time.Second)
	if len(nn.won[1]) != 0 {
		t.Fatalf("won %v at 48 h: the replaced claim's timer matured the restored claim", nn.won[1])
	}
	nn.run(12 * time.Hour)
	if len(nn.won[1]) != 1 || len(a.Holdings()) != 1 {
		t.Fatalf("at 60 h: won %v, holdings %v; want the restored claim, once", nn.won[1], a.Holdings())
	}
	if open := ob.Tracer().Open(); len(open) != 0 {
		t.Errorf("spans left open: %+v", open)
	}
}

// TestRestoreIsLossless is Restore as a property (ROADMAP 2(d)): over
// seeded claim/collide scripts among top-level siblings, every node's
// Snapshot at every step restores — into a fresh node and into the live one —
// to a node whose next Snapshot is equal, and sibling holdings stay
// pairwise disjoint (§4.1).
func TestRestoreIsLossless(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 4
	}
	var won, collisions int
	for seed := int64(1); seed <= seeds; seed++ {
		w, c := restoreScript(t, seed, 60)
		won, collisions = won+w, collisions+c
	}
	if won == 0 || collisions == 0 {
		t.Errorf("the scripts won %d ranges and collided %d times: nothing was claimed against", won, collisions)
	}
}

// restoreScript runs one script and returns the ranges won and the
// collisions sent.
func restoreScript(t *testing.T, seed int64, steps int) (won, collisions int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nn := newNodeNet(t)
	doms := make([]wire.DomainID, 3+rng.Intn(2))
	for i := range doms {
		doms[i] = wire.DomainID(i + 1)
		nn.add(doms[i], true, seed*10+int64(i))
	}
	for _, a := range doms {
		for _, b := range doms {
			nn.nodes[a].AddSibling(b)
		}
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(4) {
		case 0: // claims made in one instant cross, and collide
			nn.hold = true
			for _, i := range rng.Perm(len(doms))[:1+rng.Intn(len(doms))] {
				nn.nodes[doms[i]].RequestSpace(1<<(8+rng.Intn(9)), 30*24*time.Hour)
			}
			nn.flush()
		case 1:
			n := nn.nodes[doms[rng.Intn(len(doms))]]
			if hs := n.Holdings(); len(hs) > 0 {
				n.Release(hs[rng.Intn(len(hs))].Prefix)
			}
		default:
			nn.run(time.Duration(1+rng.Intn(30)) * time.Hour)
		}
		for _, d := range doms {
			live := nn.nodes[d]
			snap := live.Snapshot()
			fresh := NewNode(NodeConfig{Domain: d, Clock: nn.clk, Rand: rand.New(rand.NewSource(seed)),
				WaitPeriod: 48 * time.Hour, TopLevel: true})
			fresh.Restore(snap)
			got := fresh.Snapshot()
			fresh.Shutdown()
			if !reflect.DeepEqual(got, snap) {
				t.Fatalf("seed %d step %d domain %d: restored into a fresh node\n got  %+v\n want %+v", seed, step, d, got, snap)
			}
			live.Restore(snap)
			if got := live.Snapshot(); !reflect.DeepEqual(got, snap) {
				t.Fatalf("seed %d step %d domain %d: restored into the live node\n got  %+v\n want %+v", seed, step, d, got, snap)
			}
		}
		for i, a := range doms {
			for _, b := range doms[i+1:] {
				for _, ha := range nn.nodes[a].Holdings() {
					for _, hb := range nn.nodes[b].Holdings() {
						if ha.Prefix.Overlaps(hb.Prefix) {
							t.Fatalf("seed %d step %d: domains %d and %d both hold %v / %v", seed, step, a, b, ha.Prefix, hb.Prefix)
						}
					}
				}
			}
		}
	}
	for _, ps := range nn.won {
		won += len(ps)
	}
	return won, nn.collisions
}
