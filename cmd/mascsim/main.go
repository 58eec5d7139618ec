// Command mascsim regenerates the paper's Figure 2: the MASC claim
// algorithm simulation (§4.3.3) with 50 top-level domains × 50 children
// over 800 days.
//
// Output is a CSV time series (day, utilization, G-RIB avg, G-RIB max,
// globally advertised prefixes) plus a summary block reproducing the
// in-text numbers (steady-state utilization ≈ 50 %, ≈ 37,500 live block
// requests).
//
// Usage:
//
//	mascsim [-top 50] [-children 50] [-days 800] [-seed 1998]
//	        [-fig 2a|2b|csv] [-summary] [-metrics] [-trace]
//	        [-trace-out spans.json] [-metrics-out metrics.prom]
//
// -trace-out records every claim round as a span timestamped from the
// simulation's event clock and writes Chrome trace-event JSON.
// -metrics-out writes the final counter state in Prometheus text
// exposition format. Both files are byte-identical for the same seed.
//
// This is one run of one seed. Replicated trials across a worker pool are
// `benchsuite -suite fig2-alloc -trials N -parallel M`.
package main

import (
	"flag"
	"fmt"
	"os"

	"mascbgmp"
)

func main() {
	var (
		top        = flag.Int("top", 50, "number of top-level domains")
		children   = flag.Int("children", 50, "children per top-level domain")
		days       = flag.Int("days", 800, "simulated days")
		seed       = flag.Int64("seed", 1998, "random seed")
		fig        = flag.String("fig", "csv", `output: "2a" (utilization series), "2b" (G-RIB series), "csv" (both)`)
		summary    = flag.Bool("summary", false, "print only the steady-state summary")
		hetero     = flag.Bool("hetero", false, "heterogeneous topology: variable children per provider and block sizes")
		metrics    = flag.Bool("metrics", false, "dump protocol event counters to stderr at exit")
		trace      = flag.Bool("trace", false, "print every protocol event to stderr as it happens")
		traceOut   = flag.String("trace-out", "", "record allocator claim spans and write Chrome trace-event JSON to this file")
		metricsOut = flag.String("metrics-out", "", "write counters and histograms to this file in Prometheus text exposition format")
	)
	flag.Parse()

	cfg := mascbgmp.DefaultFig2Config()
	cfg.TopLevel = *top
	cfg.ChildrenPer = *children
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.Heterogeneous = *hetero

	var ob *mascbgmp.Observer
	var tr *mascbgmp.Tracer
	if *metrics || *trace || *traceOut != "" || *metricsOut != "" {
		ob = mascbgmp.NewObserver()
		cfg.Obs = ob
		if *trace {
			ob.Subscribe(func(e mascbgmp.Event) { fmt.Fprintln(os.Stderr, e) })
		}
		if *traceOut != "" {
			tr = mascbgmp.NewTracer(*seed)
			ob.SetTracer(tr)
		}
	}

	res := mascbgmp.RunFig2(cfg)

	if !*summary {
		switch *fig {
		case "2a":
			fmt.Println("day,utilization_pct")
			for _, s := range res.Samples {
				fmt.Printf("%.0f,%.2f\n", s.Day, s.Utilization*100)
			}
		case "2b":
			fmt.Println("day,grib_avg,grib_max")
			for _, s := range res.Samples {
				fmt.Printf("%.0f,%.1f,%d\n", s.Day, s.GRIBAvg, s.GRIBMax)
			}
		case "csv":
			fmt.Println("day,utilization_pct,grib_avg,grib_max,global_prefixes,demand,claimed")
			for _, s := range res.Samples {
				fmt.Printf("%.0f,%.2f,%.1f,%d,%d,%d,%d\n",
					s.Day, s.Utilization*100, s.GRIBAvg, s.GRIBMax, s.GlobalPrefixes, s.Demand, s.Claimed)
			}
		default:
			fmt.Fprintf(os.Stderr, "mascsim: unknown -fig %q\n", *fig)
			os.Exit(2)
		}
	}

	// Steady-state summary (after the startup transient).
	util, grib, gribMax, cut := steadyState(res.Samples, *days)
	fmt.Fprintf(os.Stderr, "\n# steady state after day %.0f (paper: util ~50%%, G-RIB mean ~175 / max <=180 at 50x50)\n", cut)
	fmt.Fprintf(os.Stderr, "domains:              %d top-level, %d children\n", *top, *top**children)
	fmt.Fprintf(os.Stderr, "utilization:          %.1f%%\n", util*100)
	fmt.Fprintf(os.Stderr, "G-RIB size:           mean %.1f, max %d\n", grib, gribMax)
	fmt.Fprintf(os.Stderr, "live block requests:  %d (paper: ~37500 at 50x50)\n", res.LiveBlocks)
	fmt.Fprintf(os.Stderr, "requests satisfied:   %d (failed: %d)\n", res.Satisfied, res.Failed)
	fmt.Fprintf(os.Stderr, "expansion events:     %d doublings, %d extra claims, %d replacements, %d releases\n",
		res.ChildStats.Doublings, res.ChildStats.ExtraClaims, res.ChildStats.Replacements, res.ChildStats.Releases)

	if *metrics {
		fmt.Fprintf(os.Stderr, "\n# protocol event counters\n%s", ob.Snapshot().Totals())
	}
	writeObsFiles(ob, tr, *metricsOut, *traceOut)
}

// writeObsFiles writes the optional -metrics-out Prometheus exposition and
// -trace-out Chrome trace JSON. Both are sorted and byte-deterministic for
// a given seed.
func writeObsFiles(ob *mascbgmp.Observer, tr *mascbgmp.Tracer, metricsOut, traceOut string) {
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, []byte(ob.Snapshot().Prometheus()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mascsim: %v\n", err)
			os.Exit(2)
		}
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, mascbgmp.ChromeTrace(tr.Records()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mascsim: %v\n", err)
			os.Exit(2)
		}
	}
}

// steadyState averages the post-transient samples (after day
// min(days/4, 100)) and returns the cut day used.
func steadyState(samples []mascbgmp.Fig2Sample, days int) (util, grib float64, gribMax int, cut float64) {
	cut = float64(days) / 4
	if cut > 100 {
		cut = 100
	}
	n := 0
	for _, s := range samples {
		if s.Day > cut {
			util += s.Utilization
			grib += s.GRIBAvg
			if s.GRIBMax > gribMax {
				gribMax = s.GRIBMax
			}
			n++
		}
	}
	if n > 0 {
		util /= float64(n)
		grib /= float64(n)
	}
	return util, grib, gribMax, cut
}
