package experiments

import (
	"testing"

	"mascbgmp/internal/obs"
)

// scaledChurn keeps the workload cheap for CI while preserving its shape:
// hundreds of groups, thousands of events.
func scaledChurn() ChurnConfig {
	cfg := DefaultChurnConfig()
	cfg.Domains = 400
	cfg.ExtraPeering = 50
	cfg.Groups = 200
	cfg.RootDomains = 16
	cfg.Events = 4000
	cfg.SendsPerGroup = 2
	return cfg
}

func TestChurnShape(t *testing.T) {
	cfg := scaledChurn()
	res := RunChurn(cfg)
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("churn did nothing: %+v", res)
	}
	if res.Joins-res.Leaves != res.MembersFinal {
		t.Fatalf("membership accounting broken: joins %d - leaves %d != members %d",
			res.Joins, res.Leaves, res.MembersFinal)
	}
	// Every group keeps at least its root on the tree.
	if res.ForwardingEntries < cfg.Groups {
		t.Fatalf("forwarding entries %d < groups %d", res.ForwardingEntries, cfg.Groups)
	}
	if res.MeanTreeSize < 1 {
		t.Fatalf("mean tree size %.2f < 1", res.MeanTreeSize)
	}
	// Join grafts and leave prunes must balance with the surviving state:
	// every on-tree domain beyond the per-group root was grafted once.
	if res.JoinHops-res.PruneHops != uint64(res.ForwardingEntries-cfg.Groups) {
		t.Fatalf("graft/prune imbalance: %d - %d != %d",
			res.JoinHops, res.PruneHops, res.ForwardingEntries-cfg.Groups)
	}
	// G-RIB stays tiny relative to the group count: that is the paper's
	// aggregation claim carried into the churn workload.
	if res.GRIBSize == 0 || res.GRIBSize > cfg.Groups/4 {
		t.Fatalf("G-RIB size %d out of band for %d groups", res.GRIBSize, cfg.Groups)
	}
	if res.Packets != cfg.Groups*cfg.SendsPerGroup {
		t.Fatalf("packets = %d, want %d", res.Packets, cfg.Groups*cfg.SendsPerGroup)
	}
	if res.ForwardHops == 0 || res.Delivered == 0 {
		t.Fatalf("forwarding phase idle: %+v", res)
	}
}

func TestChurnDeterministic(t *testing.T) {
	cfg := scaledChurn()
	a, b := RunChurn(cfg), RunChurn(cfg)
	if a != b {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	if c := RunChurn(cfg); c == a {
		t.Fatal("different seed did not perturb the workload")
	}
}

func TestChurnMetricsAreSeedStable(t *testing.T) {
	run := func() string {
		cfg := scaledChurn()
		cfg.Obs = obs.NewObserver()
		RunChurn(cfg)
		return cfg.Obs.Snapshot().String()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed, different snapshots:\n--- run 1\n%s--- run 2\n%s", s1, s2)
	}

	cfg := scaledChurn()
	cfg.Obs = obs.NewObserver()
	res := RunChurn(cfg)
	s := cfg.Obs.Snapshot()
	for _, kind := range []obs.Kind{obs.MAASLease, obs.BGMPJoin, obs.BGMPPrune, obs.MASCClaim,
		obs.DataForwarded, obs.DataDelivered} {
		if s.Total(kind) == 0 {
			t.Fatalf("counter %q is zero", kind)
		}
	}
	if got := s.Total(obs.BGMPJoin); got != uint64(res.Joins) {
		t.Fatalf("bgmp.join = %d, want %d", got, res.Joins)
	}
	if got := s.Total(obs.DataDelivered); got != res.Delivered {
		t.Fatalf("data.delivered = %d, want %d", got, res.Delivered)
	}
}
