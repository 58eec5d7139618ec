package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/obs"
)

// scaledChaos keeps the sweep cheap for CI: one lossy point, a short
// steady-state phase, and a short crash.
func scaledChaos() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.LossRates = []float64{0.10}
	cfg.Packets = 15
	cfg.CrashFor = 3 * time.Minute
	return cfg
}

func TestChaosReconvergence(t *testing.T) {
	// The acceptance scenario: 10% loss plus one injected border-router
	// crash. All groups must fall back to transit, re-attach to the root
	// domain after the restart, and end healthy — within the configured
	// hold + backoff budget (RunChaos errors if any phase blows it).
	cfg := scaledChaos()
	pts, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if !pt.Recovered {
		t.Fatal("network did not recover to the direct path with full delivery")
	}
	if pt.SessionDowns == 0 || pt.SessionUps == 0 {
		t.Fatalf("supervision events missing: downs=%d ups=%d", pt.SessionDowns, pt.SessionUps)
	}
	if pt.Reroute <= 0 || pt.Reroute > cfg.HoldTime+2*time.Minute {
		t.Fatalf("Reroute = %v, want within hold+2m", pt.Reroute)
	}
	if pt.Reconverge < 0 || pt.Reconverge > 6*cfg.HoldTime+2*time.Minute {
		t.Fatalf("Reconverge = %v, want within hold+backoff budget", pt.Reconverge)
	}
	if pt.DeliveryRatio < 0.5 || pt.DeliveryRatio > 1 {
		t.Fatalf("DeliveryRatio = %.3f under 10%% loss, want (0.5, 1]", pt.DeliveryRatio)
	}
}

func TestChaosLossFreeBaseline(t *testing.T) {
	cfg := scaledChaos()
	cfg.LossRates = []float64{0}
	pts, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].DeliveryRatio != 1 {
		t.Fatalf("DeliveryRatio = %.3f at zero loss, want 1", pts[0].DeliveryRatio)
	}
	if !pts[0].Recovered {
		t.Fatal("zero-loss run did not recover")
	}
}

func TestChaosSweepDeterminism(t *testing.T) {
	// Same seed, same config → byte-identical obs snapshots for the whole
	// sweep, including every fault, session, and repair event.
	run := func() (string, []ChaosPoint) {
		cfg := scaledChaos()
		ob := obs.NewObserver()
		cfg.Obs = ob
		pts, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ob.Snapshot().String(), pts
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 {
		t.Fatalf("same-seed chaos sweeps diverged:\n--- run 1\n%s\n--- run 2\n%s", s1, s2)
	}
	for i := range p1 {
		if !reflect.DeepEqual(p1[i], p2[i]) {
			t.Fatalf("point %d diverged: %+v vs %+v", i, p1[i], p2[i])
		}
	}
}

func TestChaosStatelessBackendsRecover(t *testing.T) {
	// The stateless data planes ride the RIBs instead of tree state: the
	// crash must still reroute onto transit (iBGP withdrawal at the
	// crashed router's siblings) and reconverge onto the direct route
	// after the restart.
	for _, backend := range []string{dataplane.BIERName, dataplane.MapEncapName} {
		cfg := scaledChaos()
		cfg.LossRates = []float64{0}
		cfg.DataPlane = backend
		pts, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		pt := pts[0]
		if pt.DeliveryRatio != 1 {
			t.Errorf("backend %s: DeliveryRatio = %.3f at zero loss, want 1", backend, pt.DeliveryRatio)
		}
		if !pt.Recovered {
			t.Errorf("backend %s: network did not recover", backend)
		}
		// Reroute can be 0: the crashed router's iBGP siblings withdraw
		// its routes immediately, so the stateless planes swing onto the
		// transit route without waiting for any remote hold timer.
		if pt.Reroute < 0 || pt.Reroute > cfg.HoldTime+2*time.Minute {
			t.Errorf("backend %s: Reroute = %v, want within hold+2m", backend, pt.Reroute)
		}
	}
}

// TestChaosPointsEndValid runs every point of DefaultChaosConfig's sweep on
// each backend, as RunChaos builds and runs it, and holds the network the
// point ends with to violations. Chaos is what reaches PeerDown through
// crashes and hold timers, so this is where the checker's §12 clause reads
// backups after sessions died and came back.
func TestChaosPointsEndValid(t *testing.T) {
	for _, backend := range dataplane.Names() {
		cfg := DefaultChaosConfig()
		cfg.DataPlane = backend
		for i, loss := range cfg.LossRates {
			ob := obs.NewObserver()
			cn, err := buildChaosNet(cfg, int64(i), ob)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := cn.run(cfg, loss, ob)
			if err != nil {
				t.Fatalf("%s, loss %.2f: %v", backend, loss, err)
			}
			if !pt.Recovered {
				t.Errorf("%s, loss %.2f: the point did not recover", backend, loss)
			}
			noViolations(t, fmt.Sprintf("%s, loss %.2f", backend, loss), violations(cn.n, nil, cn.groups))
		}
	}
}
