package experiments

import (
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/scenario"
	"mascbgmp/internal/topology"
)

// Scale-churn workload: thousands of multicast groups joining and leaving
// over a paper-scale (3326-domain) AS graph. This is this repository's
// production-scale extension of the paper's evaluation: Figure 4 measures
// static tree quality, while churn measures the dynamic costs the
// architecture was designed to bound — join/prune message hops on the
// bidirectional shared tree (§5.2), per-domain forwarding state, and the
// G-RIB footprint of the MASC block allocations the groups are drawn from
// (§4.3). It is the model of model.go with every group's address leased
// up front from an rng-drawn root and one burst of uniform toggles.

// ChurnConfig parameterizes RunChurn.
type ChurnConfig struct {
	// Domains and ExtraPeering parameterize the synthetic AS graph
	// (paper scale: 3326 / 350).
	Domains      int
	ExtraPeering int
	// Groups is the number of multicast groups.
	Groups int
	// RootDomains is the number of provider domains groups are rooted at
	// (the domains running MASC allocators).
	RootDomains int
	// Events is the number of join/leave operations in the churn phase.
	Events int
	// BlockSize is the MASC block request size backing group addresses
	// (paper: 256).
	BlockSize uint64
	// SendsPerGroup is the number of steady-state packets sent to each
	// group after the churn phase.
	SendsPerGroup int
	// DataPlane selects the forwarding-phase cost model: one of
	// dataplane.Names(). Empty (and any unknown value) means the default
	// shared-tree model; the membership/churn phases are identical for
	// every backend — only the per-packet hop and header accounting
	// changes. The cmds validate the name before it gets here.
	DataPlane string
	Seed      int64
	// Obs observes the workload: maas.lease per group, bgmp.join/prune
	// per membership change, data.forwarded/data.delivered for the
	// steady-state phase, plus the masc.* events of the block allocators.
	// Nil disables observation.
	Obs *obs.Observer
}

// DefaultChurnConfig returns the scale recorded in EXPERIMENTS.md:
// 2500 groups over the paper's 3326-domain topology, 40000 churn events.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Domains:       3326,
		ExtraPeering:  350,
		Groups:        2500,
		RootDomains:   64,
		Events:        40000,
		BlockSize:     256,
		SendsPerGroup: 4,
		Seed:          1998,
	}
}

// ChurnResult is the workload's deterministic outcome. Throughput rates
// (joins/sec, forwarded hops/sec) are derived from these counts and the
// measured wall time by the benchmark harness, not recorded here.
type ChurnResult struct {
	TreeStats
	// GRIBSize is the number of live claimed prefixes across all root
	// domains at the end.
	GRIBSize int
	ForwardStats
}

// buildChurn runs the setup and churn phases: topology, root allocators,
// group creation, the join/leave event stream, and the steady-state
// accounting. RunChurn (one forwarding model) and RunDataPlane (all
// models side by side) both continue from it, so the two entry points
// draw from the same rng stream in the same order. Independent of
// cfg.DataPlane — the backends share the control plane by construction.
func buildChurn(cfg ChurnConfig) *model {
	g := topology.ASGraph(cfg.Domains, cfg.ExtraPeering, cfg.Seed)
	st := newModel(g, cfg.Seed, cfg.RootDomains, masc.DefaultStrategy(), cfg.Obs)
	now := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	life := 365 * 24 * time.Hour

	// Create the groups, leasing each an address from its root's blocks;
	// next/end walk individual addresses out of each root's current block.
	type cursor struct{ next, end addr.Addr }
	blocks := make([]cursor, len(st.roots))
	for i := 0; i < cfg.Groups; i++ {
		ri := st.rng.Intn(len(st.roots))
		rs, c := st.roots[ri], &blocks[ri]
		if c.next >= c.end {
			blk, ok := rs.alloc.Request(cfg.BlockSize, life, now)
			if !ok {
				// 224/4 cannot run out at these scales; skip defensively.
				st.groups = append(st.groups, nil)
				continue
			}
			c.next = blk.Prefix.Base
			c.end = blk.Prefix.Base + addr.Addr(blk.Size)
		}
		st.addGroup(rs, c.next)
		c.next++
		st.emitLease(st.groups[i])
	}

	// Churn phase: the uniform membership generator toggles random
	// (group, domain) pairs, so each group's membership does a random
	// walk and the trees grow and shrink continuously. The generator
	// scenario.Uniform returns reproduces this workload's historical rng
	// stream exactly, which is what keeps the checked-in scale/dataplane
	// baselines valid.
	if cfg.Groups > 0 && cfg.Events > 0 {
		gen := scenario.Uniform(cfg.Events)
		gen.Start(scenario.Env{Graph: g, Groups: cfg.Groups}, st.rng)
		gen.Emit(0, st, st.rng, st.apply)
	}
	st.settle()
	return st
}

// churnResult is the churn outcome once the forwarding phase has run.
func (st *model) churnResult() ChurnResult {
	return ChurnResult{TreeStats: st.TreeStats, GRIBSize: st.gribSize(), ForwardStats: st.ForwardStats}
}

// RunChurn runs the churn workload. Deterministic for a given config.
// Every group is sent to, members or not: a packet to an empty group
// still climbs to the root.
func RunChurn(cfg ChurnConfig) ChurnResult {
	st := buildChurn(cfg)
	st.forwardAll(cfg.SendsPerGroup, 0, cfg.DataPlane)
	return st.churnResult()
}
