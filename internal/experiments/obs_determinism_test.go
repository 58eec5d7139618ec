package experiments

import (
	"testing"

	"mascbgmp/internal/obs"
)

// Observability must not perturb the simulations, and the simulations must
// drive it deterministically: the same seed yields byte-identical metric
// snapshots across runs.

func TestFig2MetricsAreSeedStable(t *testing.T) {
	run := func() (Fig2Result, string) {
		cfg := scaledFig2()
		cfg.Days = 60
		cfg.Obs = obs.NewObserver()
		res := RunFig2(cfg)
		return res, cfg.Obs.Snapshot().String()
	}
	res1, snap1 := run()
	res2, snap2 := run()
	if snap1 != snap2 {
		t.Fatalf("same seed, different snapshots:\n--- run 1\n%s--- run 2\n%s", snap1, snap2)
	}
	if snap1 == "" {
		t.Fatal("observed run produced no counters")
	}
	if res1.Satisfied != res2.Satisfied || res1.LiveBlocks != res2.LiveBlocks {
		t.Fatalf("results diverged: %+v vs %+v", res1, res2)
	}
	s := cfgSnapshot(t, snap1)
	for _, kind := range []obs.Kind{obs.MASCClaim, obs.MASCWon, obs.BGPAnnounce, obs.MAASLease} {
		if s.Total(kind) == 0 {
			t.Fatalf("counter %q is zero:\n%s", kind, snap1)
		}
	}
}

// cfgSnapshot re-runs the scaled config once more to get a Snapshot object
// for Total() assertions (String() was compared above).
func cfgSnapshot(t *testing.T, want string) obs.Snapshot {
	t.Helper()
	cfg := scaledFig2()
	cfg.Days = 60
	cfg.Obs = obs.NewObserver()
	RunFig2(cfg)
	s := cfg.Obs.Snapshot()
	if s.String() != want {
		t.Fatalf("third run diverged from first two")
	}
	return s
}

func TestFig4MetricsAreSeedStable(t *testing.T) {
	run := func() string {
		cfg := DefaultFig4Config()
		cfg.Domains, cfg.ExtraPeering, cfg.Trials = 300, 30, 2
		cfg.GroupSizes = []int{1, 5, 20}
		cfg.Obs = obs.NewObserver()
		RunFig4(cfg)
		return cfg.Obs.Snapshot().String()
	}
	snap1, snap2 := run(), run()
	if snap1 != snap2 {
		t.Fatalf("same seed, different snapshots:\n--- run 1\n%s--- run 2\n%s", snap1, snap2)
	}

	cfg := DefaultFig4Config()
	cfg.Domains, cfg.ExtraPeering, cfg.Trials = 300, 30, 2
	cfg.GroupSizes = []int{1, 5, 20}
	cfg.Obs = obs.NewObserver()
	RunFig4(cfg)
	s := cfg.Obs.Snapshot()
	for _, kind := range []obs.Kind{obs.BGMPJoin, obs.BGMPPrune, obs.DataDelivered, obs.DataForwarded} {
		if s.Total(kind) == 0 {
			t.Fatalf("counter %q is zero:\n%s", kind, snap1)
		}
	}
	// Every join is matched by a teardown prune.
	if s.Total(obs.BGMPJoin) != s.Total(obs.BGMPPrune) {
		t.Fatalf("joins %d != prunes %d", s.Total(obs.BGMPJoin), s.Total(obs.BGMPPrune))
	}
}
