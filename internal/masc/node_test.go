package masc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// nodeNet wires Nodes together with synchronous in-process delivery.
type nodeNet struct {
	clk   *simclock.Sim
	nodes map[wire.DomainID]*Node
	won   map[wire.DomainID][]addr.Prefix
	lost  map[wire.DomainID][]addr.Prefix
	// hold queues messages until flush, so that claims made in one instant
	// cross instead of being heard one by one.
	hold       bool
	queue      []func()
	collisions int
}

func newNodeNet(t *testing.T) *nodeNet {
	t.Helper()
	return &nodeNet{
		clk:   simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)),
		nodes: map[wire.DomainID]*Node{},
		won:   map[wire.DomainID][]addr.Prefix{},
		lost:  map[wire.DomainID][]addr.Prefix{},
	}
}

func (nn *nodeNet) add(d wire.DomainID, topLevel bool, seed int64) *Node {
	n := NewNode(NodeConfig{
		Domain:     d,
		Clock:      nn.clk,
		Rand:       rand.New(rand.NewSource(seed)),
		WaitPeriod: 48 * time.Hour,
		TopLevel:   topLevel,
		Send: func(to wire.DomainID, msg wire.Message) {
			if _, ok := msg.(*wire.Collision); ok {
				nn.collisions++
			}
			deliver := func() {
				if peer, ok := nn.nodes[to]; ok {
					peer.HandleMessage(d, msg)
				}
			}
			if nn.hold {
				nn.queue = append(nn.queue, deliver)
			} else {
				deliver()
			}
		},
		OnWon:  func(p addr.Prefix, _ time.Time) { nn.won[d] = append(nn.won[d], p) },
		OnLost: func(p addr.Prefix) { nn.lost[d] = append(nn.lost[d], p) },
	})
	nn.nodes[d] = n
	return n
}

// run advances simulated time past the waiting period.
func (nn *nodeNet) run(d time.Duration) { nn.clk.RunFor(d) }

// flush ends hold, delivering what it queued in order.
func (nn *nodeNet) flush() {
	nn.hold = false
	for len(nn.queue) > 0 {
		deliver := nn.queue[0]
		nn.queue = nn.queue[1:]
		deliver()
	}
}

func TestTopLevelClaimWins(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	if !a.RequestSpace(65536, 30*24*time.Hour) {
		t.Fatal("claim selection failed")
	}
	if len(nn.won[1]) != 0 {
		t.Fatal("claim must not be won before the waiting period")
	}
	nn.run(48*time.Hour + time.Second)
	if len(nn.won[1]) != 1 {
		t.Fatalf("won = %v", nn.won[1])
	}
	p := nn.won[1][0]
	if p.Size() < 65536 || !p.IsMulticast() {
		t.Fatalf("won prefix %v unsuitable", p)
	}
	if len(a.Holdings()) != 1 {
		t.Fatal("holding missing")
	}
}

func TestSiblingClaimsAvoidEachOther(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	b := nn.add(2, true, 2)
	a.AddSibling(2)
	b.AddSibling(1)
	a.RequestSpace(65536, 30*24*time.Hour)
	nn.run(time.Hour)
	// B hears A's claim before choosing.
	b.RequestSpace(65536, 30*24*time.Hour)
	nn.run(49 * time.Hour)
	if len(nn.won[1]) != 1 || len(nn.won[2]) != 1 {
		t.Fatalf("wins: %v / %v", nn.won[1], nn.won[2])
	}
	if nn.won[1][0].Overlaps(nn.won[2][0]) {
		t.Fatalf("sibling claims overlap: %v / %v", nn.won[1][0], nn.won[2][0])
	}
}

func TestCollisionOnHeldRange(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	b := nn.add(2, true, 2)
	a.AddSibling(2)
	b.AddSibling(1)
	a.RequestSpace(65536, 30*24*time.Hour)
	nn.run(49 * time.Hour)
	held := nn.won[1][0]

	// B (who somehow didn't hear the claim — e.g. joined later) claims the
	// exact same range; A must send a collision and B must re-claim
	// elsewhere.
	b.HandleMessage(0, &wire.RangeAdvert{Owner: 0}) // no-op, B is top-level
	bClaim := &wire.Claim{Claimer: 2, ClaimID: 99, Prefix: held, LifeSecs: 3600}
	// Simulate B sending by injecting into A and letting A's collision
	// flow back to B; first record B's own pending state by using the
	// real path: force B's ledger empty of A's claim.
	b2 := nn.add(3, true, 3) // fresh sibling with no knowledge of A
	a.AddSibling(3)
	b2.AddSibling(1)
	_ = bClaim
	// b2 deterministically picks the same first-fit region as A did if
	// its shortest-free search finds the same block; to guarantee an
	// overlap we claim the entire multicast space.
	if !b2.RequestSpace(addr.MulticastSpace.Size(), 30*24*time.Hour) {
		t.Fatal("b2 claim selection failed")
	}
	nn.run(49 * time.Hour)
	if len(nn.won[3]) == 0 {
		t.Fatal("b2 should eventually win a (re-selected) range")
	}
	for _, p := range nn.won[3] {
		if p.Overlaps(held) {
			t.Fatalf("b2 won %v overlapping A's held %v", p, held)
		}
	}
}

func TestSimultaneousClaimsOneWins(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 5)
	b := nn.add(2, true, 5) // same seed: same first pick
	a.AddSibling(2)
	b.AddSibling(1)
	// Both claim the whole space concurrently — guaranteed overlap.
	a.RequestSpace(addr.MulticastSpace.Size(), 30*24*time.Hour)
	b.RequestSpace(addr.MulticastSpace.Size(), 30*24*time.Hour)
	nn.run(100 * time.Hour)
	// Exactly one of them holds 224/4; the loser re-claimed and, with the
	// space exhausted by the winner, holds nothing.
	aWon, bWon := len(nn.won[1]), len(nn.won[2])
	if aWon+bWon != 1 {
		t.Fatalf("wins: a=%d b=%d, want exactly 1", aWon, bWon)
	}
}

func TestParentChildRangeAdvertAndClaim(t *testing.T) {
	nn := newNodeNet(t)
	parent := nn.add(1, true, 1)
	child := nn.add(10, false, 2)
	child.SetParent(1)
	parent.AddChild(10)

	parent.RequestSpace(65536, 60*24*time.Hour)
	nn.run(49 * time.Hour)
	if len(nn.won[1]) != 1 {
		t.Fatal("parent claim failed")
	}
	parentRange := nn.won[1][0]

	// The RangeAdvert after maturation gave the child its spaces.
	if !child.RequestSpace(256, 30*24*time.Hour) {
		t.Fatal("child claim selection failed — did the RangeAdvert arrive?")
	}
	nn.run(49 * time.Hour)
	if len(nn.won[10]) != 1 {
		t.Fatal("child claim failed")
	}
	if !parentRange.ContainsPrefix(nn.won[10][0]) {
		t.Fatalf("child won %v outside parent range %v", nn.won[10][0], parentRange)
	}
}

func TestParentRejectsOutsideClaim(t *testing.T) {
	nn := newNodeNet(t)
	parent := nn.add(1, true, 1)
	child := nn.add(10, false, 2)
	child.SetParent(1)
	parent.AddChild(10)
	parent.RequestSpace(65536, 60*24*time.Hour)
	nn.run(49 * time.Hour)

	// Inject a child claim outside the parent's space.
	outside := addr.MustParsePrefix("239.255.0.0/24")
	parent.HandleMessage(10, &wire.Claim{Claimer: 10, ClaimID: 1, Prefix: outside, LifeSecs: 60})
	nn.run(time.Hour)
	// The child must have received a collision; since it had no matching
	// pending claim nothing explodes, but the parent must not have
	// recorded it as a child claim.
	if parent.childClaims.taken.ContainsPrefix(outside) {
		t.Fatal("out-of-space child claim must not be recorded")
	}
}

func TestParentTooLargeDisincentive(t *testing.T) {
	nn := newNodeNet(t)
	clk := nn.clk
	parent := NewNode(NodeConfig{
		Domain: 1, Clock: clk, Rand: rand.New(rand.NewSource(1)),
		TopLevel: true, MaxClaim: 1 << 16,
		Send: func(to wire.DomainID, msg wire.Message) {
			if p, ok := nn.nodes[to]; ok {
				p.HandleMessage(1, msg)
			}
		},
	})
	nn.nodes[1] = parent
	child := nn.add(10, false, 2)
	child.SetParent(1)
	parent.AddChild(10)
	parent.RequestSpace(1<<20, 60*24*time.Hour)
	nn.run(49 * time.Hour)

	// Child claims an excessive /12 (2^20 addresses > MaxClaim 2^16).
	if !child.RequestSpace(1<<20, 30*24*time.Hour) {
		t.Fatal("child claim selection failed")
	}
	nn.run(time.Hour)
	// The too-large collision forces a retry, which picks ... the same
	// size again (the node retries the original size); it keeps losing.
	nn.run(49 * time.Hour)
	for _, p := range nn.won[10] {
		if p.Size() > 1<<16 {
			t.Fatalf("child won an excessive range %v despite MaxClaim", p)
		}
	}
}

func TestReleasePropagates(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	b := nn.add(2, true, 2)
	a.AddSibling(2)
	b.AddSibling(1)
	a.RequestSpace(65536, 30*24*time.Hour)
	nn.run(49 * time.Hour)
	held := nn.won[1][0]

	a.Release(held)
	if len(nn.lost[1]) != 1 || nn.lost[1][0] != held {
		t.Fatalf("OnLost = %v", nn.lost[1])
	}
	if len(a.Holdings()) != 0 {
		t.Fatal("holding should be gone")
	}
	// B's ledger must have freed the range: B can now claim it.
	if !b.heard.CanClaim(held) {
		t.Fatal("release did not free the range at the sibling")
	}
}

func TestRequestSpaceFailsWithNoSpaces(t *testing.T) {
	nn := newNodeNet(t)
	child := nn.add(10, false, 2)
	child.SetParent(1)
	if child.RequestSpace(256, time.Hour) {
		t.Fatal("claim with no advertised parent ranges must fail")
	}
}

func TestAutoRenewExtendsHolding(t *testing.T) {
	nn := newNodeNet(t)
	var renewed []addr.Prefix
	n := NewNode(NodeConfig{
		Domain: 1, Clock: nn.clk, Rand: rand.New(rand.NewSource(1)),
		TopLevel: true, AutoRenew: true, WaitPeriod: 48 * time.Hour,
		OnRenewed: func(p addr.Prefix, _ time.Time) { renewed = append(renewed, p) },
		OnLost:    func(p addr.Prefix) { t.Errorf("auto-renewed holding lost: %v", p) },
	})
	nn.nodes[1] = n
	life := 10 * 24 * time.Hour
	n.RequestSpace(65536, life)
	nn.run(49 * time.Hour)
	if len(n.Holdings()) != 1 {
		t.Fatal("claim failed")
	}
	// Run well past several lifetimes: the holding must persist.
	nn.run(35 * 24 * time.Hour)
	if len(n.Holdings()) != 1 {
		t.Fatal("holding lapsed despite auto-renew")
	}
	if len(renewed) < 2 {
		t.Fatalf("renewals = %d, want several", len(renewed))
	}
	if !n.Holdings()[0].Expires.After(nn.clk.Now()) {
		t.Fatal("renewed expiry not in the future")
	}
}

func TestExpiryReleasesWithoutAutoRenew(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	b := nn.add(2, true, 2)
	a.AddSibling(2)
	b.AddSibling(1)
	life := 5 * 24 * time.Hour
	a.RequestSpace(65536, life)
	nn.run(49 * time.Hour)
	held := nn.won[1][0]
	// After the lifetime, the range is given up and the sibling may
	// claim it.
	nn.run(life + time.Hour)
	if len(a.Holdings()) != 0 {
		t.Fatalf("holdings after expiry = %v", a.Holdings())
	}
	if len(nn.lost[1]) != 1 || nn.lost[1][0] != held {
		t.Fatalf("OnLost = %v", nn.lost[1])
	}
	if !b.heard.CanClaim(held) {
		t.Fatal("expired range not freed at the sibling")
	}
}

func TestReleasedHoldingNotRenewedByTimer(t *testing.T) {
	nn := newNodeNet(t)
	a := nn.add(1, true, 1)
	life := 5 * 24 * time.Hour
	a.RequestSpace(65536, life)
	nn.run(49 * time.Hour)
	held := nn.won[1][0]
	a.Release(held)
	// The pending lifetime timer must be a no-op for the released range.
	nn.run(life + time.Hour)
	if len(a.Holdings()) != 0 {
		t.Fatal("released holding resurrected")
	}
	if len(nn.lost[1]) != 1 {
		t.Fatalf("lost events = %v", nn.lost[1])
	}
}

// TestCompetingClaimOverTwoPendingIsDeterministic: a sibling's claim that
// covers two of our pending claims, one that beats it under the §4.1
// footnote rule (lower claim ID) and one that loses to it (equal ID, higher
// domain), has one answer — the winner's collision, nothing abandoned —
// however the pending map happens to iterate.
func TestCompetingClaimOverTwoPendingIsDeterministic(t *testing.T) {
	outcomes := map[string]int{}
	for run := 0; run < 200; run++ {
		collisions := 0
		n := NewNode(NodeConfig{
			Domain:     5,
			Clock:      simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)),
			Rand:       rand.New(rand.NewSource(1)),
			WaitPeriod: 48 * time.Hour,
			TopLevel:   true,
			Send: func(_ wire.DomainID, msg wire.Message) {
				if _, ok := msg.(*wire.Collision); ok {
					collisions++
				}
			},
		})
		n.AddSibling(3)
		if !n.RequestSpace(256, time.Hour) || !n.RequestSpace(256, time.Hour) {
			t.Fatal("claim selection failed")
		}
		n.HandleMessage(3, &wire.Claim{Claimer: 3, ClaimID: 2, Prefix: addr.MulticastSpace})
		outcomes[fmt.Sprintf("%d collision(s) sent, %d claim(s) still pending", collisions, len(n.Snapshot().Pending))]++
	}
	if want := "1 collision(s) sent, 2 claim(s) still pending"; len(outcomes) != 1 || outcomes[want] != 200 {
		t.Fatalf("outcomes over 200 identical runs = %v, want only %q", outcomes, want)
	}
}
