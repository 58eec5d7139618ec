package experiments

import (
	"fmt"
	"os"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/scenario"
	"mascbgmp/internal/topology"
)

// The scenario engine: runs a declarative scenario.Spec — topology,
// group population, and a pluggable membership generator — on the model
// of model.go. Where churn fixes the membership model to one burst of
// uniform toggles over pre-leased groups, the engine steps simulated time
// and leases on demand, so demand-shaped workloads (diurnal waves,
// flash crowds) can drive the allocator's §4.3.3 expand/collapse rules
// through lease expiry and sample occupancy as it moves.
//
// Everything is driven by the seeded rng and the simulated clock; a
// given (spec, seed) yields identical results on every run.

// WorkloadConfig parameterizes RunWorkload.
type WorkloadConfig struct {
	// Spec is the parsed scenario (topology + workload sections).
	Spec scenario.Spec
	// Seed drives the per-trial rng stream.
	Seed int64
	// DataPlane selects the forwarding-phase cost model, as in
	// ChurnConfig. Empty means the default shared-tree model.
	DataPlane string
	// Obs observes the run (same event kinds as the churn workload).
	// Nil disables observation.
	Obs *obs.Observer
}

// WorkloadResult is the engine's deterministic outcome.
type WorkloadResult struct {
	TreeStats
	// RootJoins counts joins whose graft walked all the way to the root
	// domain — joins no existing tree branch absorbed. FanIn is
	// Joins / max(1, RootJoins): how many joins the shared tree soaked
	// up per join the root had to see (§5.2 join aggregation).
	RootJoins int
	FanIn     float64
	// LeaseFailures counts address-lease requests the root's allocator
	// could not satisfy.
	LeaseFailures int
	// Expansions, Claims, and Collapses aggregate the §4.3.3 allocator
	// events across roots: prefix doublings, new claims beyond the
	// first (extra + replacement), and expired-empty prefix releases.
	Expansions, Claims, Collapses int
	// OccMax is the peak aggregate allocator occupancy
	// (demand/capacity) sampled per step; OccTrough is the minimum
	// after occupancy first reached the 75% target — together they
	// bound the excursion a demand wave drives.
	OccMax, OccTrough float64
	// GRIBPeak and GRIBFinal count live claimed prefixes across roots
	// (peak over steps, final value).
	GRIBPeak, GRIBFinal int
	// MembersPeak is the peak total membership over steps.
	MembersPeak int
	ForwardStats
}

// buildTopology realizes the spec's topology section. seed only drives
// the "as" generator, matching cmd/topogen.
func buildTopology(ts scenario.TopologySpec, seed int64) (*topology.Graph, error) {
	switch ts.Kind {
	case "as":
		return topology.ASGraph(ts.Domains, ts.Peering, seed), nil
	case "hierarchy":
		g, _, _ := topology.Hierarchy(ts.Top, ts.Children)
		return g, nil
	case "file":
		f, err := os.Open(ts.Path)
		if err != nil {
			return nil, fmt.Errorf("experiments: topology file: %w", err)
		}
		defer f.Close()
		g, err := topology.ReadEdgeList(f)
		if err != nil {
			return nil, fmt.Errorf("experiments: topology file %s: %w", ts.Path, err)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("experiments: unknown topology kind %q", ts.Kind)
	}
}

// RunWorkload executes one scenario trial. Deterministic for a given
// (spec, seed): the generator and the forwarding phase draw from one
// rng stream, the allocators from per-root streams, exactly as the
// churn workload seeds them.
func RunWorkload(cfg WorkloadConfig) (WorkloadResult, error) {
	w := cfg.Spec.Workload
	gen, err := scenario.Compile(w)
	if err != nil {
		return WorkloadResult{}, err
	}
	g, err := buildTopology(cfg.Spec.Topology, cfg.Seed)
	if err != nil {
		return WorkloadResult{}, err
	}
	strat := masc.DefaultStrategy()
	strat.ClaimLifetime = w.ClaimLifetime
	st := newModel(g, cfg.Seed, w.RootDomains, strat, cfg.Obs)
	var res WorkloadResult
	start := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)

	// Group slots: round-robin root assignment, fixed addresses out of
	// 224/4. Unlike churn, no address is leased up front — the lease
	// scan below allocates on demand, so allocator occupancy follows
	// the membership wave instead of the (static) group count.
	for i := 0; i < w.Groups; i++ {
		st.addGroup(st.roots[i%len(st.roots)], addr.MulticastSpace.Base+addr.Addr(i))
	}
	// leaseExp tracks each group's address-lease expiry; the zero time
	// means no live lease.
	leaseExp := make([]time.Time, w.Groups)

	// The lease a live group holds: LeaseLifetime == 0 means one lease
	// for the whole run (plus a day so it cannot lapse on the last step).
	leaseLife := w.LeaseLifetime
	if leaseLife == 0 {
		leaseLife = w.Duration + 24*time.Hour
	}

	gen.Start(scenario.Env{Graph: g, Groups: w.Groups}, st.rng)
	steps := w.Steps()
	crossedTarget := false
	for s := 0; s < steps; s++ {
		now := start.Add(time.Duration(s) * w.Step)
		gen.Emit(s, st, st.rng, st.apply)

		// Lease scan: live groups (re-)lease their address block when
		// the previous lease has lapsed; idle groups let it expire.
		members := 0
		for i, gr := range st.groups {
			members += len(gr.members)
			if len(gr.members) == 0 {
				continue
			}
			if leaseExp[i].After(now) {
				continue
			}
			_, ok := gr.root.alloc.Request(uint64(w.AddressesPerGroup), leaseLife, now)
			if !ok {
				res.LeaseFailures++
				continue
			}
			leaseExp[i] = now.Add(leaseLife)
			st.emitLease(gr)
		}
		res.MembersPeak = max(res.MembersPeak, members)

		// Advance the allocators and sample occupancy and G-RIB size.
		var demand, capacity uint64
		for _, rs := range st.roots {
			rs.alloc.Tick(now)
			demand += rs.alloc.Demand()
			capacity += rs.alloc.Capacity()
		}
		occ := 0.0
		if capacity > 0 {
			occ = float64(demand) / float64(capacity)
		}
		res.OccMax = max(res.OccMax, occ)
		if !crossedTarget && occ >= strat.TargetOccupancy {
			crossedTarget = true
			res.OccTrough = occ
		}
		if crossedTarget {
			res.OccTrough = min(res.OccTrough, occ)
		}
		res.GRIBPeak = max(res.GRIBPeak, st.gribSize())
	}

	// Final state and allocator event totals.
	st.settle()
	res.GRIBFinal = st.gribSize()
	for _, rs := range st.roots {
		stats := rs.alloc.Stats
		res.Expansions += stats.Doublings
		res.Claims += stats.ExtraClaims + stats.Replacements
		res.Collapses += stats.Releases
	}
	res.RootJoins = st.rootJoins
	res.FanIn = float64(st.Joins) / float64(max(1, st.rootJoins))

	// Steady-state forwarding phase over the groups that still have
	// members, with the same cost models the churn workload uses.
	st.forwardAll(w.SendsPerGroup, 1, cfg.DataPlane)
	res.TreeStats, res.ForwardStats = st.TreeStats, st.ForwardStats
	return res, nil
}
