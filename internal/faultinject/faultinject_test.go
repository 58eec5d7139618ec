package faultinject

import (
	"math/rand"
	"testing"
	"time"

	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

func newPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(7))
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRequiresRand(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Rand must fail")
	}
}

func TestCleanLinkDeliversEverything(t *testing.T) {
	p := newPlane(t, Config{})
	n := 0
	for i := 0; i < 100; i++ {
		if !p.Deliver(1, 2, Control, func() { n++ }) {
			t.Fatal("clean link dropped a message")
		}
	}
	if n != 100 {
		t.Fatalf("delivered %d of 100", n)
	}
	if s := p.Stats(); s.Delivered != 100 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDropProbability(t *testing.T) {
	p := newPlane(t, Config{Default: LinkFaults{Drop: 0.5}})
	delivered := 0
	for i := 0; i < 1000; i++ {
		p.Deliver(1, 2, Data, func() { delivered++ })
	}
	if delivered < 400 || delivered > 600 {
		t.Fatalf("0.5 drop delivered %d of 1000", delivered)
	}
	s := p.Stats()
	if s.Dropped+s.Delivered != 1000 {
		t.Fatalf("stats don't add up: %+v", s)
	}
}

func TestDropIsSeedDeterministic(t *testing.T) {
	run := func() []bool {
		p := newPlane(t, Config{Rand: rand.New(rand.NewSource(42)), Default: LinkFaults{Drop: 0.3}})
		out := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			out = append(out, p.Deliver(1, 2, Data, func() {}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
}

func TestDuplicate(t *testing.T) {
	p := newPlane(t, Config{Default: LinkFaults{Dup: 1.0}})
	n := 0
	p.Deliver(1, 2, Data, func() { n++ })
	if n != 2 {
		t.Fatalf("dup=1.0 delivered %d times, want 2", n)
	}
}

func TestReorderSwapsAdjacentMessages(t *testing.T) {
	// First message always reordered (held), second releases it after
	// itself: delivery order is 2, 1.
	p := newPlane(t, Config{Default: LinkFaults{Reorder: 1.0}})
	var order []int
	p.Deliver(1, 2, Data, func() { order = append(order, 1) })
	p.Deliver(1, 2, Data, func() { order = append(order, 2) })
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want [2 1]", order)
	}
}

func TestFlushHeldReleasesParked(t *testing.T) {
	p := newPlane(t, Config{Default: LinkFaults{Reorder: 1.0}})
	n := 0
	p.Deliver(1, 2, Data, func() { n++ })
	if n != 0 {
		t.Fatal("reordered message delivered immediately")
	}
	p.FlushHeld()
	if n != 1 {
		t.Fatalf("flush delivered %d, want 1", n)
	}
}

func TestDelayGoesThroughClock(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	p := newPlane(t, Config{Clock: clk, Default: LinkFaults{Delay: time.Second}})
	n := 0
	p.Deliver(1, 2, Data, func() { n++ })
	if n != 0 {
		t.Fatal("delayed message delivered synchronously")
	}
	clk.RunFor(time.Second)
	if n != 1 {
		t.Fatalf("after delay n=%d, want 1", n)
	}
}

func TestPartitionDropsAndHeals(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	p := newPlane(t, Config{Clock: clk})
	p.PartitionFor(1, 2, time.Minute)
	n := 0
	if p.Deliver(1, 2, Control, func() { n++ }) || p.Deliver(2, 1, Control, func() { n++ }) {
		t.Fatal("partitioned link delivered")
	}
	if !p.Partitioned(1, 2) || !p.Partitioned(2, 1) {
		t.Fatal("Partitioned not symmetric")
	}
	// Other links are unaffected.
	if !p.Deliver(1, 3, Control, func() {}) {
		t.Fatal("unrelated link affected by partition")
	}
	clk.RunFor(time.Minute)
	if p.Partitioned(1, 2) {
		t.Fatal("partition did not heal")
	}
	if !p.Deliver(1, 2, Control, func() { n++ }) || n != 1 {
		t.Fatal("healed link does not deliver")
	}
}

func TestCrashAndRestartHooks(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	p := newPlane(t, Config{Clock: clk})
	var crashes, restarts []int
	p.SetPeerHooks(
		func(r wire.RouterID) { crashes = append(crashes, int(r)) },
		func(r wire.RouterID) { restarts = append(restarts, int(r)) },
	)
	p.CrashPeerFor(5, time.Hour)
	if !p.Crashed(5) {
		t.Fatal("peer not crashed")
	}
	if p.Deliver(5, 2, Control, func() {}) || p.Deliver(2, 5, Control, func() {}) {
		t.Fatal("crashed peer exchanged traffic")
	}
	p.CrashPeer(5) // idempotent
	clk.RunFor(time.Hour)
	if p.Crashed(5) {
		t.Fatal("peer did not restart")
	}
	if len(crashes) != 1 || crashes[0] != 5 || len(restarts) != 1 || restarts[0] != 5 {
		t.Fatalf("hooks: crashes=%v restarts=%v", crashes, restarts)
	}
}

func TestClassMaskExemptsControl(t *testing.T) {
	p := newPlane(t, Config{Default: LinkFaults{Drop: 1.0, Classes: MaskData}})
	if !p.Deliver(1, 2, Control, func() {}) {
		t.Fatal("control message dropped despite MaskData")
	}
	if !p.Deliver(1, 2, Keepalive, func() {}) {
		t.Fatal("keepalive dropped despite MaskData")
	}
	if p.Deliver(1, 2, Data, func() {}) {
		t.Fatal("data message survived drop=1.0")
	}
}

func TestLinkOverrideBeatsDefault(t *testing.T) {
	p := newPlane(t, Config{Default: LinkFaults{Drop: 1.0}})
	p.SetLink(1, 2, LinkFaults{}) // clean override
	if !p.Deliver(1, 2, Data, func() {}) {
		t.Fatal("override ignored")
	}
	if p.Deliver(1, 3, Data, func() {}) {
		t.Fatal("default ignored")
	}
	p.ClearLink(1, 2)
	if p.Deliver(1, 2, Data, func() {}) {
		t.Fatal("ClearLink did not restore the default")
	}
}

func TestFaultEventsAreObservable(t *testing.T) {
	ob := obs.NewObserver()
	p := newPlane(t, Config{Obs: ob, Default: LinkFaults{Drop: 1.0}})
	p.Deliver(1, 2, Data, func() {})
	p.Partition(3, 4)
	p.Heal(3, 4)
	s := ob.Snapshot()
	for _, kind := range []obs.Kind{obs.FaultDrop, obs.FaultPartition, obs.FaultHeal} {
		if s.Total(kind) == 0 {
			t.Fatalf("counter %q is zero:\n%s", kind, s)
		}
	}
}
