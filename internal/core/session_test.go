package core

import (
	"math/rand"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// faultNet is failoverNet with a fault plane and session supervision: the
// chaosWorld triangle R(11,12)—T(21,22)—M(31) with the direct link 12–31,
// hold time 30s (10s keepalives, a 15s first reconnect backoff).
func faultNet(t *testing.T, seed int64) (*Network, *simclock.Sim, *faultinject.Plane, *obs.Observer) {
	t.Helper()
	return faultNetCfg(t, seed, nil)
}

// faultNetCfg is faultNet with a Config hook applied before NewNetwork —
// the liveness tests use it to arm the fast detector.
func faultNetCfg(t *testing.T, seed int64, mutate func(*Config)) (*Network, *simclock.Sim, *faultinject.Plane, *obs.Observer) {
	t.Helper()
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	ob := obs.NewObserver()
	plane, err := faultinject.New(faultinject.Config{
		Clock: clk,
		Rand:  rand.New(rand.NewSource(seed)),
		Obs:   ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clock:       clk,
		Seed:        seed,
		Synchronous: true,
		Observer:    ob,
		Faults:      plane,
		HoldTime:    30 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := chaosWorld().Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	claimSpace(t, clk, 1<<12, 90*24*time.Hour, n.Domain(1))
	return n, clk, plane, ob
}

func TestPartitionDropsSessionAndRecovers(t *testing.T) {
	n, clk, plane, ob := faultNet(t, 3)
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Domain(3).Join(lease.Addr, 0)

	// The direct link partitions for two minutes: keepalives stop, the
	// hold timer expires, and the session is declared down.
	plane.PartitionFor(12, 31, 2*time.Minute)
	clk.RunFor(time.Minute)
	if ob.Snapshot().Total(obs.SessionDown) == 0 {
		t.Fatal("hold timer never expired during partition")
	}
	// BGP withdrew the direct route; the tree repaired onto transit.
	parent, _, ok := n.Router(31).BGMP().GroupEntry(lease.Addr)
	if !ok || parent != bgmp.PeerTarget(22) {
		t.Fatalf("mid-partition parent = %v ok=%v, want transit peer 22", parent, ok)
	}
	// Delivery keeps working over the surviving path.
	src := n.Domain(1).HostAddr(1)
	n.Domain(1).Send(lease.Addr, src, "during", 0)
	if len(n.Domain(3).Received()) != 1 {
		t.Fatal("delivery failed during partition")
	}

	// Retries fail (and back off) while the partition lasts, then succeed
	// after the heal: the session comes back and the tree returns to the
	// direct path.
	clk.RunFor(5 * time.Minute)
	s := ob.Snapshot()
	if s.Total(obs.SessionRetry) == 0 {
		t.Fatal("no failed reconnect attempts observed")
	}
	if s.Total(obs.SessionUp) == 0 {
		t.Fatal("session never re-established after heal")
	}
	parent, _, ok = n.Router(31).BGMP().GroupEntry(lease.Addr)
	if !ok || parent != bgmp.PeerTarget(12) {
		t.Fatalf("post-heal parent = %v ok=%v, want direct peer 12", parent, ok)
	}
	n.Domain(3).ClearReceived()
	n.Domain(1).Send(lease.Addr, src, "after", 0)
	if got := n.Domain(3).Received(); len(got) != 1 || got[0].Payload != "after" {
		t.Fatalf("post-heal delivery = %v", got)
	}
}

func TestPeerCrashDetectedByHoldTimerAndRecovered(t *testing.T) {
	n, clk, plane, ob := faultNet(t, 3)
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Domain(3).Join(lease.Addr, 0)
	if parent, _, _ := n.Router(31).BGMP().GroupEntry(lease.Addr); parent != bgmp.PeerTarget(12) {
		t.Fatalf("pre-crash parent = %v, want 12", parent)
	}

	// Border 12 crashes for ten minutes. Its process state is wiped; the
	// peer at 31 notices only when the hold timer expires.
	plane.CrashPeerFor(12, 10*time.Minute)
	if n.Router(12).BGMP().HasGroupState(lease.Addr) {
		t.Fatal("crashed router kept BGMP state")
	}
	clk.RunFor(time.Minute)
	if ob.Snapshot().Total(obs.SessionDown) == 0 {
		t.Fatal("crash not detected via hold timer")
	}
	parent, _, ok := n.Router(31).BGMP().GroupEntry(lease.Addr)
	if !ok || parent != bgmp.PeerTarget(22) {
		t.Fatalf("mid-crash parent = %v ok=%v, want transit peer 22", parent, ok)
	}
	src := n.Domain(1).HostAddr(1)
	n.Domain(1).Send(lease.Addr, src, "during", 0)
	if len(n.Domain(3).Received()) != 1 {
		t.Fatal("delivery failed while 12 was down")
	}

	// After the restart, a backoff retry reconnects, BGP resyncs, and the
	// restarted router relearns its tree state from the rejoin.
	clk.RunFor(15 * time.Minute)
	if ob.Snapshot().Total(obs.SessionUp) == 0 {
		t.Fatal("session to restarted peer never came back")
	}
	parent, _, ok = n.Router(31).BGMP().GroupEntry(lease.Addr)
	if !ok || parent != bgmp.PeerTarget(12) {
		t.Fatalf("post-restart parent = %v ok=%v, want direct peer 12", parent, ok)
	}
	if !n.Router(12).BGMP().HasGroupState(lease.Addr) {
		t.Fatal("restarted router did not relearn tree state")
	}
	n.Domain(3).ClearReceived()
	n.Domain(1).Send(lease.Addr, src, "after", 0)
	if got := n.Domain(3).Received(); len(got) != 1 || got[0].Payload != "after" {
		t.Fatalf("post-restart delivery = %v", got)
	}
}

func TestDataLossDoesNotDropSessions(t *testing.T) {
	n, clk, plane, ob := faultNet(t, 3)
	// Heavy loss confined to the data class: keepalives and control are
	// exempt, so sessions must stay up.
	plane.SetDefault(faultinject.LinkFaults{Drop: 0.9, Classes: faultinject.MaskData})
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Domain(3).Join(lease.Addr, 0)
	clk.RunFor(10 * time.Minute)
	if got := ob.Snapshot().Total(obs.SessionDown); got != 0 {
		t.Fatalf("session.down = %d under data-only loss, want 0", got)
	}
}

// TestDelayedKeepalivesDoNotExpireSession is the regression test for the
// transmit-time stamping bug: keepalives used to credit the receiver with
// the clock reading at *send* time, so a delivery delayed close to the
// hold time recorded a stale instant and the session flapped even though
// keepalives were arriving steadily. With delivery-time crediting, a
// steady 28s-delayed stream keeps the receiver at most ~interval behind.
func TestDelayedKeepalivesDoNotExpireSession(t *testing.T) {
	n, clk, plane, ob := faultNet(t, 5)
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Domain(3).Join(lease.Addr, 0)

	// Ramp the delay in two steps so no *transition* gap exceeds the hold
	// time (jumping 0→28s would silence the link for interval+28s ≥ 30s
	// and legitimately expire the session); each steady state then lags
	// deliveries by only (delay mod interval) + interval.
	plane.SetLink(12, 31, faultinject.LinkFaults{Delay: 15 * time.Second, Classes: faultinject.MaskKeepalive})
	clk.RunFor(40 * time.Second)
	plane.SetLink(12, 31, faultinject.LinkFaults{Delay: 28 * time.Second, Classes: faultinject.MaskKeepalive})
	clk.RunFor(5 * time.Minute)

	if got := ob.Snapshot().Total(obs.SessionDown); got != 0 {
		t.Fatalf("session.down = %d under delayed-but-steady keepalives, want 0", got)
	}
	if parent, _, ok := n.Router(31).BGMP().GroupEntry(lease.Addr); !ok || parent != bgmp.PeerTarget(12) {
		t.Fatalf("parent = %v ok=%v, want direct peer 12 (session must have stayed up)", parent, ok)
	}
}

// TestStaleKeepalivesDoNotTouchNextIncarnation is the regression test for
// cross-incarnation touches: keepalives still in flight when a session
// goes down used to credit the *next* incarnation on delivery, postponing
// its (legitimate) hold expiry. With generation checking the reconnected
// incarnation hears nothing once the link eats all new keepalives, so its
// second down lands one hold time after the reconnect — not later.
func TestStaleKeepalivesDoNotTouchNextIncarnation(t *testing.T) {
	n, clk, plane, ob := faultNet(t, 5)
	_ = n

	// 40s-delayed keepalives silence the link past the hold time: the
	// session drops (down #1) while several old-incarnation keepalives are
	// still queued for delivery inside the next incarnation's lifetime.
	plane.SetLink(12, 31, faultinject.LinkFaults{Delay: 40 * time.Second, Classes: faultinject.MaskKeepalive})
	deadline := clk.Now().Add(time.Minute)
	for ob.Snapshot().Total(obs.SessionDown) == 0 {
		if !clk.Now().Before(deadline) {
			t.Fatal("session never dropped under 40s keepalive delay")
		}
		clk.RunFor(time.Second)
	}

	// From now on every fresh keepalive is lost (the delayed ones already
	// in flight still arrive). The reconnect at +15s starts an incarnation
	// that must expire exactly one hold time later: down #2 at ~+45s. If
	// the stale deliveries (arriving up to +40s after down #1) credited
	// the new incarnation, the second down would slip past +50s.
	plane.SetLink(12, 31, faultinject.LinkFaults{Drop: 1, Classes: faultinject.MaskKeepalive})
	clk.RunFor(50 * time.Second)
	if got := ob.Snapshot().Total(obs.SessionDown); got != 2 {
		t.Fatalf("session.down = %d within 50s of the first drop, want 2 (stale keepalives must not feed the new incarnation)", got)
	}
}

// TestReconnectBackoffSchedule pins the reconnect schedule: after a session
// goes down, the first retry waits HoldTime/2 (15s), and every failed retry
// doubles the wait up to 8× the first — 15, 30, 60, 120, 120 … s.
func TestReconnectBackoffSchedule(t *testing.T) {
	_, clk, plane, ob := faultNet(t, 3)
	var down time.Time
	var retries []time.Time
	cancel := ob.Subscribe(func(e obs.Event) {
		if e.Router != 12 || e.Peer != 31 {
			return
		}
		switch e.Kind {
		case obs.SessionDown:
			if down.IsZero() {
				down = clk.Now()
			}
		case obs.SessionRetry:
			retries = append(retries, clk.Now())
		}
	})
	defer cancel()

	plane.PartitionFor(12, 31, 10*time.Minute)
	clk.RunFor(12 * time.Minute)
	if down.IsZero() {
		t.Fatal("the partitioned session never went down")
	}
	if len(retries) < 5 {
		t.Fatalf("%d failed retries in a ten-minute partition, want at least 5", len(retries))
	}
	prev := down
	for i, at := range retries {
		want := min(15*time.Second<<i, 120*time.Second)
		if gap := at.Sub(prev); gap != want {
			t.Fatalf("retry %d came %v after the one before (or the down), want %v", i+1, gap, want)
		}
		prev = at
	}
	if got := ob.Snapshot().Total(obs.SessionUp); got != 1 {
		t.Fatalf("session.up = %d after the partition healed, want 1", got)
	}
}

// TestAsymmetricKeepaliveLossConvergesBothEnds starves exactly one
// direction (12→31) of keepalives and liveness probes: the end that stops
// hearing must expire, and — because the supervisor tears both sides of
// the peering down together — both ends converge to SessionDown within
// the detector's bound. Runs under both detectors: hold timers alone
// (HoldTime + an interval ≈ 40s) and the fast-liveness plane (a couple of
// demand polls plus Multiplier floor rounds ≈ 2.2s).
func TestAsymmetricKeepaliveLossConvergesBothEnds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lv    bool
		bound time.Duration
	}{
		{"hold-timer", false, 45 * time.Second},
		{"liveness", true, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, clk, plane, ob := faultNetCfg(t, 7, func(c *Config) { c.Liveness = tc.lv })
			lease, err := n.Domain(1).NewGroup(24 * time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			n.Domain(3).Join(lease.Addr, 0)

			start := clk.Now()
			var downAt time.Time
			var downEvt obs.Event
			cancel := ob.Subscribe(func(e obs.Event) {
				if e.Kind == obs.SessionDown && downAt.IsZero() {
					downAt = clk.Now()
					downEvt = e
				}
			})
			defer cancel()

			plane.SetLinkDirected(12, 31, faultinject.LinkFaults{
				Drop:    1,
				Classes: faultinject.MaskKeepalive | faultinject.MaskLiveness,
			})
			clk.RunFor(time.Minute)

			if downAt.IsZero() {
				t.Fatal("one-way keepalive loss never dropped the session")
			}
			if d := downAt.Sub(start); d > tc.bound {
				t.Fatalf("detection took %v, want ≤ %v", d, tc.bound)
			}
			if !(downEvt.Router == 12 && downEvt.Peer == 31) && !(downEvt.Router == 31 && downEvt.Peer == 12) {
				t.Fatalf("first session.down was %v, want the 12–31 peering", downEvt)
			}
			if tc.lv && ob.Snapshot().Total(obs.LivenessDetect) == 0 {
				t.Fatal("liveness detector configured but hold timer made the detection")
			}

			// Heal the direction and let the backoff retries reconnect: both
			// ends must return to the direct path.
			plane.ClearLinkDirected(12, 31)
			clk.RunFor(5 * time.Minute)
			if ob.Snapshot().Total(obs.SessionUp) == 0 {
				t.Fatal("session never re-established after heal")
			}
			if parent, _, ok := n.Router(31).BGMP().GroupEntry(lease.Addr); !ok || parent != bgmp.PeerTarget(12) {
				t.Fatalf("post-heal parent = %v ok=%v, want direct peer 12", parent, ok)
			}
		})
	}
}

// TestLivenessCrashFailsOverToBackupParent is the end-to-end fast-reroute
// path: with the liveness detector armed, a silent crash of the direct
// border router reroutes the tree onto transit within seconds — detection
// is the only latency, repair is one switchover to the G-RIB's runner-up
// (bgmp.failover).
func TestLivenessCrashFailsOverToBackupParent(t *testing.T) {
	n, clk, plane, ob := faultNetCfg(t, 9, func(c *Config) { c.Liveness = true })
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n.Domain(3).Join(lease.Addr, 0)
	if parent, _, _ := n.Router(31).BGMP().GroupEntry(lease.Addr); parent != bgmp.PeerTarget(12) {
		t.Fatalf("pre-crash parent = %v, want 12", parent)
	}
	if backup, ok := n.Router(31).BGMP().BackupParent(lease.Addr); !ok || backup != bgmp.PeerTarget(22) {
		t.Fatalf("backup parent = %v ok=%v, want transit peer 22", backup, ok)
	}

	plane.CrashPeerFor(12, 10*time.Minute)
	clk.RunFor(5 * time.Second)

	s := ob.Snapshot()
	if s.Total(obs.LivenessDetect) == 0 {
		t.Fatal("liveness never detected the silent crash")
	}
	if s.Total(obs.SessionDown) == 0 {
		t.Fatal("detection did not reach the session supervisor")
	}
	if s.Total(obs.BGMPFailover) == 0 {
		t.Fatal("no failover happened")
	}
	if parent, _, ok := n.Router(31).BGMP().GroupEntry(lease.Addr); !ok || parent != bgmp.PeerTarget(22) {
		t.Fatalf("post-crash parent = %v ok=%v, want transit peer 22", parent, ok)
	}
	src := n.Domain(1).HostAddr(1)
	n.Domain(1).Send(lease.Addr, src, "fast", 0)
	if len(n.Domain(3).Received()) != 1 {
		t.Fatal("delivery failed after fast reroute")
	}
}

// TestFailoverThroughASibling fails a tree over to a sibling border router.
// Domain 4's borders 11 and 12 reach root domain 1 over equally long paths,
// through domains 2 and 3, so each selects its own external route and holds
// the other's, learned over the interior, as its G-RIB runner-up: the
// border that holds the (*,G) entry has the interior toward its sibling as
// its backup parent. Unlinking that border's peering must switch the entry
// to it at once, and the withdrawal's repair must leave it there.
func TestFailoverThroughASibling(t *testing.T) {
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	w := World{Links: [][2]wire.RouterID{{1, 2}, {1, 3}, {2, 11}, {3, 12}}}
	for i, rs := range [][]wire.RouterID{{1}, {2}, {3}, {11, 12}} {
		id := wire.DomainID(i + 1)
		w.Domains = append(w.Domains, DomainConfig{ID: id, Routers: rs, Protocol: migp.DVMRP(), TopLevel: id == 1,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(id), 0, 0), Len: 16}})
	}
	ob := obs.NewObserver()
	n, err := w.Build(Config{Clock: clk, Seed: 5, Synchronous: true, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	claimSpace(t, clk, 256, 30*24*time.Hour, n.Domain(1))
	lease, err := n.Domain(1).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	g := lease.Addr
	n.Domain(4).Join(g, 0)
	at, sibling, peer := wire.RouterID(11), wire.RouterID(12), wire.RouterID(2)
	if !n.Router(at).BGMP().HasGroupState(g) {
		at, sibling, peer = sibling, at, 3
	}
	if backup, ok := n.Router(at).BGMP().BackupParent(g); !ok || backup != bgmp.MIGPToward(sibling) {
		t.Fatalf("router %d's backup parent = %v ok=%v, want the interior toward %d", at, backup, ok, sibling)
	}
	noViolations(t, "after set-up", violations(n, nil, []addr.Addr{g}))

	before := ob.Snapshot()
	if err := n.Unlink(at, peer); err != nil {
		t.Fatal(err)
	}
	d := ob.Snapshot().Diff(before)
	if d.Get(obs.BGMPFailover, 4, at) != 1 || d.Get(obs.BGMPRepair, 4, at) != 0 {
		t.Fatalf("router %d: %d failovers and %d repairs, want the one failover alone",
			at, d.Get(obs.BGMPFailover, 4, at), d.Get(obs.BGMPRepair, 4, at))
	}
	if parent, _, _ := n.Router(at).BGMP().GroupEntry(g); parent != bgmp.MIGPToward(sibling) {
		t.Fatalf("router %d's parent = %v after the unlink, want the interior toward %d", at, parent, sibling)
	}
	noViolations(t, "after the unlink", violations(n, nil, []addr.Addr{g}))
}

func TestSessionRecoveryDeterminism(t *testing.T) {
	// The full chaos sequence — partition, hold expiry, failed retries,
	// heal, reconnect — must emit byte-identical snapshots across
	// same-seed runs.
	run := func() string {
		n, clk, plane, ob := faultNet(t, 11)
		lease, err := n.Domain(1).NewGroup(24 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		n.Domain(3).Join(lease.Addr, 0)
		plane.SetDefault(faultinject.LinkFaults{Drop: 0.1, Classes: faultinject.MaskData})
		plane.PartitionFor(12, 31, 2*time.Minute)
		clk.RunFor(time.Minute)
		plane.CrashPeerFor(22, 3*time.Minute)
		clk.RunFor(10 * time.Minute)
		src := n.Domain(1).HostAddr(1)
		for i := 0; i < 20; i++ {
			n.Domain(1).Send(lease.Addr, src, "x", 0)
		}
		return ob.Snapshot().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed chaos runs diverged:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
