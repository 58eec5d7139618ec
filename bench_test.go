package mascbgmp_test

// The Ablation* benchmarks vary the design choices DESIGN.md §5 calls
// out; cmd/mascsim and cmd/treesim produce the full-scale series,
// cmd/benchsuite the suites, benchmark/ the real-stack numbers.
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"mascbgmp"
)

// fig2Bench returns a configuration that finishes in well under a second
// per iteration while preserving the paper's dynamics.
func fig2Bench() mascbgmp.Fig2Config {
	cfg := mascbgmp.DefaultFig2Config()
	cfg.TopLevel = 8
	cfg.ChildrenPer = 8
	cfg.Days = 120
	return cfg
}

func fig4Bench() mascbgmp.Fig4Config {
	cfg := mascbgmp.DefaultFig4Config()
	cfg.Domains = 800
	cfg.ExtraPeering = 100
	cfg.GroupSizes = []int{10, 100, 400}
	cfg.Trials = 3
	return cfg
}

// BenchmarkAblationRootPlacement compares initiator-domain rooting (the
// paper's §5.1 choice) against random third-party rooting.
func BenchmarkAblationRootPlacement(b *testing.B) {
	base := fig4Bench()
	random := base
	random.RandomRoot = true
	var initiator, third float64
	for i := 0; i < b.N; i++ {
		a := mascbgmp.RunFig4(base)
		c := mascbgmp.RunFig4(random)
		initiator, third = 0, 0
		for j := range a {
			initiator += a[j].BidirAvg
			third += c[j].BidirAvg
		}
		initiator /= float64(len(a))
		third /= float64(len(c))
	}
	b.ReportMetric(initiator, "initiator-root-ratio")
	b.ReportMetric(third, "random-root-ratio")
}

// BenchmarkAblationPrefixLimit varies the §4.3.3 "at most two prefixes"
// target, reporting its effect on G-RIB size and utilization.
func BenchmarkAblationPrefixLimit(b *testing.B) {
	for _, limit := range []int{1, 2, 4} {
		limit := limit
		name := map[int]string{1: "max1", 2: "max2-paper", 4: "max4"}[limit]
		b.Run(name, func(b *testing.B) {
			cfg := fig2Bench()
			st := mascbgmp.DefaultStrategy()
			st.MaxActivePrefixes = limit
			cfg.Strategy = st
			var util, grib float64
			for i := 0; i < b.N; i++ {
				res := mascbgmp.RunFig2(cfg)
				util, grib, _ = res.SteadyState(60)
			}
			b.ReportMetric(util*100, "%util")
			b.ReportMetric(grib, "routes-avg")
		})
	}
}

// BenchmarkAblationOccupancyTarget varies the 75 % target-occupancy rule.
func BenchmarkAblationOccupancyTarget(b *testing.B) {
	for _, tgt := range []float64{0.5, 0.75, 0.9} {
		tgt := tgt
		name := map[float64]string{0.5: "t50", 0.75: "t75-paper", 0.9: "t90"}[tgt]
		b.Run(name, func(b *testing.B) {
			cfg := fig2Bench()
			st := mascbgmp.DefaultStrategy()
			st.TargetOccupancy = tgt
			cfg.Strategy = st
			var util, grib float64
			for i := 0; i < b.N; i++ {
				res := mascbgmp.RunFig2(cfg)
				util, grib, _ = res.SteadyState(60)
			}
			b.ReportMetric(util*100, "%util")
			b.ReportMetric(grib, "routes-avg")
		})
	}
}

// BenchmarkTopologyGeneration measures synthesizing the paper-scale
// 3326-domain graph.
func BenchmarkTopologyGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mascbgmp.ASGraph(3326, 350, int64(i))
	}
}
