package bench

import (
	"fmt"

	"mascbgmp/internal/scenario"
	"mascbgmp/scenarios"
)

// The workloads suite: every exemplar scenario file (flash-crowd,
// diurnal, zipf, affinity) run back to back in one trial, with each
// workload's metrics reported under its own prefix. The diurnal
// sub-run doubles as an in-trial invariant: the demand wave must drive
// the MASC allocators through at least one prefix expansion and one
// collapse, or the trial fails — BENCH_workloads.json is the recorded
// proof that the §4.3.3 machinery responds to workload shape alone.

func workloadsSuite() Suite {
	var subs []Suite
	var metrics []MetricDef
	for _, name := range scenarios.Names() {
		spec, err := scenario.Parse("scenarios/"+name+".toml", scenarios.TOML(name))
		if err != nil {
			// The files are compiled in and covered by tests.
			panic("bench: " + err.Error())
		}
		subs = append(subs, fileSuite(spec))
		for _, m := range workloadMetrics() {
			m.Name = name + "_" + m.Name
			metrics = append(metrics, m)
		}
	}
	return Suite{
		Name: "workloads",
		Description: "the exemplar scenario files (flash-crowd, diurnal, zipf, affinity) " +
			"through the scenario engine: occupancy excursions, claim/collapse counts, join fan-in",
		DefaultTrials: 3,
		Metrics:       metrics,
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			out := TrialOutput{Values: map[string]float64{}, Rates: map[string]float64{}}
			for k, sub := range subs {
				// Offset the sub-run seeds so the workloads draw
				// independent streams from one trial seed.
				subCtx := ctx
				subCtx.Seed = ctx.Seed + int64(k)*7919
				res, err := sub.Trial(subCtx)
				if err != nil {
					return TrialOutput{}, fmt.Errorf("workload %s: %w", sub.Name, err)
				}
				if sub.Name == scenario.KindDiurnal &&
					(res.Values["expansions"] < 1 || res.Values["collapses"] < 1) {
					return TrialOutput{}, fmt.Errorf(
						"diurnal wave drove %v expansions and %v collapses; want >= 1 of each",
						res.Values["expansions"], res.Values["collapses"])
				}
				for name, v := range res.Values {
					out.Values[sub.Name+"_"+name] = v
				}
				for name, v := range res.Rates {
					out.Rates[name] += v
				}
			}
			return out, nil
		},
	}
}
