package liveness

import (
	"math/rand"
	"testing"
	"time"

	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

var simStart = time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)

// harness bundles one monitored peering on a simulated clock with a
// seeded fault plane, mirroring how core wires a session's monitor.
type harness struct {
	clk   *simclock.Sim
	plane *faultinject.Plane
	ob    *obs.Observer
	mon   *Monitor
	downs int
}

func newHarness(t *testing.T, seed int64, p Params) *harness {
	t.Helper()
	h := &harness{clk: simclock.NewSim(simStart), ob: obs.NewObserver()}
	plane, err := faultinject.New(faultinject.Config{
		Clock: h.clk,
		Rand:  rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("faultinject.New: %v", err)
	}
	h.plane = plane
	h.mon = New(Config{
		Clock:   h.clk,
		Initial: 10 * time.Second, // HoldTime 30s / 3
		Params:  p,
		Domain:  1,
		A:       11,
		B:       21,
		Faults:  plane,
		OnDown:  func(wire.TraceContext) { h.downs++ },
		Obs:     h.ob,
	})
	return h
}

func (h *harness) total(kind obs.Kind) uint64 { return h.ob.Snapshot().Total(kind) }

// TestRampToFloorAndDemand drives a clean session and checks the adaptive
// ramp: the interval halves from Initial down to the floor, and after
// DemandAfter stable floor rounds the monitor quiesces into demand mode.
func TestRampToFloorAndDemand(t *testing.T) {
	h := newHarness(t, 1, Params{Floor: 100 * time.Millisecond, Multiplier: 3, DemandAfter: 4})
	h.mon.Start()

	// The first tick only fires at Initial (10s), then each clean round
	// halves: 10s → 5s → 2.5s → 1.25s → 625ms → 312.5ms → 156.25ms →
	// 100ms, reaching the floor at ~30s; 4 more floor rounds quiesce.
	h.clk.RunFor(35 * time.Second)

	st := h.mon.State()
	if !st.Running {
		t.Fatalf("monitor stopped on a clean session: %+v", st)
	}
	if st.Interval != 100*time.Millisecond {
		t.Fatalf("interval did not converge to the floor: %v", st.Interval)
	}
	if !st.Demand {
		t.Fatalf("monitor did not quiesce after %d stable rounds: %+v", 4, st)
	}
	if got := h.total(obs.LivenessDemand); got != 1 {
		t.Fatalf("liveness.demand = %d, want 1", got)
	}
	if got := h.total(obs.LivenessDetect); got != 0 {
		t.Fatalf("false detection on a clean session: liveness.detect = %d", got)
	}
	if h.downs != 0 {
		t.Fatalf("OnDown fired %d times on a clean session", h.downs)
	}

	// Demand mode probes at DemandInterval (10× floor = 1s), not the
	// floor: a 10s quiet stretch should see ~10 more rounds, not ~100.
	before := h.plane.Stats().Delivered
	h.clk.RunFor(10 * time.Second)
	delivered := h.plane.Stats().Delivered - before
	if delivered > 24 { // 2 probes/round, ≤ ~11 rounds + slack
		t.Fatalf("demand mode did not quiesce probing: %d deliveries in 10s", delivered)
	}
}

// TestDetectAfterSilence kills the link (liveness class only) under a
// quiesced monitor and checks detection within the worst-case bound:
// one demand poll to notice the miss and resume fast probing, then
// Multiplier-1 further floor rounds to trip the multiplier.
func TestDetectAfterSilence(t *testing.T) {
	h := newHarness(t, 2, Params{Floor: 100 * time.Millisecond, Multiplier: 3, DemandAfter: 4})
	h.mon.Start()
	h.clk.RunFor(35 * time.Second)
	if st := h.mon.State(); !st.Demand {
		t.Fatalf("precondition: monitor not in demand mode: %+v", st)
	}

	h.plane.SetLink(11, 21, faultinject.LinkFaults{Drop: 1, Classes: faultinject.MaskLiveness})
	cut := h.clk.Now()
	var detectAt time.Time
	cancel := h.ob.Subscribe(func(e obs.Event) {
		if e.Kind == obs.LivenessDetect && detectAt.IsZero() {
			detectAt = h.clk.Now()
		}
	})
	defer cancel()

	h.clk.RunFor(10 * time.Second)

	if h.downs != 1 {
		t.Fatalf("OnDown fired %d times, want 1", h.downs)
	}
	if got := h.total(obs.LivenessDetect); got != 1 {
		t.Fatalf("liveness.detect = %d, want 1", got)
	}
	if st := h.mon.State(); st.Running {
		t.Fatalf("monitor still running after detection: %+v", st)
	}
	// Worst case: the probes that die first were sent just after a poll,
	// so the first missed evaluation is ~2 polls after the cut, then two
	// more floor rounds: 2×1s + 2×100ms.
	bound := 2*time.Second + 200*time.Millisecond
	if d := detectAt.Sub(cut); d <= 0 || d > bound {
		t.Fatalf("detection took %v, want within (0, %v]", d, bound)
	}
}

// TestDemandExitWithoutFalseDown drops a short burst of polls — fewer
// than Multiplier consecutive floor rounds — and checks the monitor
// resumes fast probing without declaring the session dead, then
// re-quiesces once the link heals.
func TestDemandExitWithoutFalseDown(t *testing.T) {
	h := newHarness(t, 3, Params{Floor: 100 * time.Millisecond, Multiplier: 3, DemandAfter: 4})
	h.mon.Start()
	h.clk.RunFor(35 * time.Second)
	if st := h.mon.State(); !st.Demand {
		t.Fatalf("precondition: monitor not in demand mode: %+v", st)
	}

	// One demand poll round dies, then the link heals: the monitor must
	// resume floor-rate probing (liveness.resume), count at most two
	// missed rounds, and recover.
	h.plane.SetLink(11, 21, faultinject.LinkFaults{Drop: 1, Classes: faultinject.MaskLiveness})
	h.clk.RunFor(1100 * time.Millisecond)
	h.plane.SetLink(11, 21, faultinject.LinkFaults{})
	h.clk.RunFor(10 * time.Second)

	if got := h.total(obs.LivenessDetect); got != 0 {
		t.Fatalf("false detection on a transient loss burst: liveness.detect = %d", got)
	}
	if h.downs != 0 {
		t.Fatalf("OnDown fired %d times on a transient loss burst", h.downs)
	}
	if got := h.total(obs.LivenessResume); got == 0 {
		t.Fatal("monitor never resumed fast probing after the missed poll")
	}
	st := h.mon.State()
	if !st.Running || !st.Demand {
		t.Fatalf("monitor did not recover and re-quiesce: %+v", st)
	}
	if got := h.total(obs.LivenessDemand); got != 2 {
		t.Fatalf("liveness.demand = %d, want 2 (initial quiesce + re-quiesce)", got)
	}
}

// TestStaleGenerationIgnored delays probes across a Stop/Start cycle and
// checks the old incarnation's probes do not credit the new one: with
// every fresh probe dropped, detection must still fire on schedule even
// while stale delayed probes keep arriving.
func TestStaleGenerationIgnored(t *testing.T) {
	h := newHarness(t, 4, Params{Floor: 100 * time.Millisecond, Multiplier: 3})
	// First incarnation: delay probes by 5s so a stream of them is in
	// flight when the incarnation ends.
	h.plane.SetLink(11, 21, faultinject.LinkFaults{Delay: 5 * time.Second, Classes: faultinject.MaskLiveness})
	h.mon.Start()
	h.clk.RunFor(2 * time.Second)
	h.mon.Stop()

	// Second incarnation: every *new* probe is dropped, but the first
	// incarnation's delayed probes are still queued for delivery inside
	// the detection window. If generations were not checked they would
	// keep crediting the round and suppress detection.
	h.plane.SetLink(11, 21, faultinject.LinkFaults{Drop: 1, Classes: faultinject.MaskLiveness})
	h.mon.Start()
	h.clk.RunFor(40 * time.Second)

	if h.downs != 1 {
		t.Fatalf("OnDown fired %d times, want 1 (stale probes must not credit the new incarnation)", h.downs)
	}
	if got := h.total(obs.LivenessDetect); got != 1 {
		t.Fatalf("liveness.detect = %d, want 1", got)
	}
}

// TestLivenessDeterminism runs the same lossy scenario twice from the
// same seed and requires byte-identical event snapshots.
func TestLivenessDeterminism(t *testing.T) {
	run := func() string {
		h := newHarness(t, 1998, Params{Floor: 100 * time.Millisecond, Multiplier: 3, DemandAfter: 4})
		h.plane.SetLink(11, 21, faultinject.LinkFaults{Drop: 0.3, Classes: faultinject.MaskLiveness})
		h.mon.Start()
		h.clk.RunFor(2 * time.Minute)
		return h.ob.Snapshot().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
