package bench

import (
	"fmt"

	"mascbgmp/internal/experiments"
	"mascbgmp/internal/scenario"
)

// File-loaded scenarios: a parsed scenario.Spec becomes a Suite value
// with the generic workload metric set, run exactly like a built-in
// (benchsuite -scenario <file>).

// workloadMetrics is the metric set every scenario-file suite reports
// (the workloads suite prefixes the names with each sub-run's).
func workloadMetrics() []MetricDef {
	return []MetricDef{
		{Name: "fanin", Unit: "ratio", Better: Higher,
			Help: "joins absorbed per join that grafted all the way to the root (§5.2 aggregation)"},
		{Name: "occ_max", Unit: "fraction", Better: Info,
			Help: "peak allocator occupancy (demand/capacity) over the run"},
		{Name: "occ_trough", Unit: "fraction", Better: Info,
			Help: "minimum occupancy after first reaching the 75% target (0 until reached)"},
		{Name: "expansions", Unit: "events", Better: Info,
			Help: "MASC prefix doublings driven by the workload"},
		{Name: "claims", Unit: "events", Better: Info,
			Help: "new prefix claims beyond doubling (extra + replacement)"},
		{Name: "collapses", Unit: "events", Better: Info,
			Help: "drained prefixes released back to the ledger"},
		{Name: "grib_final", Unit: "routes", Better: Lower,
			Help: "live claimed prefixes across roots at the end"},
		{Name: "forwarding_entries", Unit: "entries", Better: Lower,
			Help: "total (group, domain) forwarding state at the end"},
		{Name: "mean_tree_size", Unit: "domains", Better: Info,
			Help: "mean on-tree domains per group at the end"},
		{Name: "joins", Unit: "ops", Better: Info,
			Help: "join operations applied"},
		{Name: "delivered", Unit: "packets", Better: Higher,
			Help: "member deliveries in the forwarding phase"},
	}
}

// fileSuite wraps a parsed spec as a runnable Suite.
func fileSuite(spec scenario.Spec) Suite {
	desc := spec.Description
	if desc == "" {
		desc = fmt.Sprintf("scenario file: %s workload on a %s topology", spec.Workload.Kind, spec.Topology.Kind)
	}
	return Suite{
		Name:          spec.Name,
		Description:   desc,
		DefaultTrials: spec.Trials,
		Metrics:       workloadMetrics(),
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			res, err := experiments.RunWorkload(experiments.WorkloadConfig{
				Spec:      spec,
				Seed:      ctx.Seed,
				DataPlane: ctx.Backend,
				Obs:       ctx.Obs,
			})
			if err != nil {
				return TrialOutput{}, err
			}
			return TrialOutput{
				Values: map[string]float64{
					"fanin":              res.FanIn,
					"occ_max":            res.OccMax,
					"occ_trough":         res.OccTrough,
					"expansions":         float64(res.Expansions),
					"claims":             float64(res.Claims),
					"collapses":          float64(res.Collapses),
					"grib_final":         float64(res.GRIBFinal),
					"forwarding_entries": float64(res.ForwardingEntries),
					"mean_tree_size":     res.MeanTreeSize,
					"joins":              float64(res.Joins),
					"delivered":          float64(res.Delivered),
				},
				Rates: map[string]float64{
					"membership_ops": float64(res.Joins + res.Leaves),
					"packets":        float64(res.Packets),
				},
			}, nil
		},
	}
}

// LoadScenarioFile parses a scenario file and returns it as a Suite. The
// name comes from user input, so one that would shadow a built-in suite
// is an error.
func LoadScenarioFile(path string) (Suite, error) {
	spec, err := scenario.ParseFile(path)
	if err != nil {
		return Suite{}, err
	}
	if _, exists := Lookup(spec.Name); exists {
		return Suite{}, fmt.Errorf("%s: scenario name %q is a built-in suite's; rename it in the file", path, spec.Name)
	}
	return fileSuite(spec), nil
}
