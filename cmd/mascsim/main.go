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
//
// Bad flag values (-top, -children or -days below 1, an unknown -fig) exit
// with status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mascbgmp"
	"mascbgmp/cmd/internal/obsflags"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes the series to
// stdout and everything else to stderr, and returns the exit code (2 usage
// or unwritable output file), so the tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mascsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top      = fs.Int("top", 50, "number of top-level domains")
		children = fs.Int("children", 50, "children per top-level domain")
		days     = fs.Int("days", 800, "simulated days")
		seed     = fs.Int64("seed", 1998, "random seed")
		fig      = fs.String("fig", "csv", `output: "2a" (utilization series), "2b" (G-RIB series), "csv" (both)`)
		summary  = fs.Bool("summary", false, "print only the steady-state summary")
		hetero   = fs.Bool("hetero", false, "heterogeneous topology: variable children per provider and block sizes")
		of       obsflags.Flags
	)
	of.Register(fs, "metrics", "trace", "trace-out", "metrics-out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mascsim: "+format+"\n", a...)
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-top", *top}, {"-children", *children}, {"-days", *days}} {
		if f.v < 1 {
			return usage("%s must be at least 1, got %d", f.name, f.v)
		}
	}
	if *fig != "2a" && *fig != "2b" && *fig != "csv" {
		return usage("unknown -fig %q (valid: 2a, 2b, csv)", *fig)
	}

	cfg := mascbgmp.DefaultFig2Config()
	cfg.TopLevel = *top
	cfg.ChildrenPer = *children
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.Heterogeneous = *hetero

	ob := of.Observer(*seed, stderr)
	cfg.Obs = ob

	res := mascbgmp.RunFig2(cfg)

	if !*summary {
		switch *fig {
		case "2a":
			fmt.Fprintln(stdout, "day,utilization_pct")
			for _, s := range res.Samples {
				fmt.Fprintf(stdout, "%.0f,%.2f\n", s.Day, s.Utilization*100)
			}
		case "2b":
			fmt.Fprintln(stdout, "day,grib_avg,grib_max")
			for _, s := range res.Samples {
				fmt.Fprintf(stdout, "%.0f,%.1f,%d\n", s.Day, s.GRIBAvg, s.GRIBMax)
			}
		case "csv":
			fmt.Fprintln(stdout, "day,utilization_pct,grib_avg,grib_max,global_prefixes,demand,claimed")
			for _, s := range res.Samples {
				fmt.Fprintf(stdout, "%.0f,%.2f,%.1f,%d,%d,%d,%d\n",
					s.Day, s.Utilization*100, s.GRIBAvg, s.GRIBMax, s.GlobalPrefixes, s.Demand, s.Claimed)
			}
		}
	}

	// Steady-state summary, after the startup transient: day
	// min(days/4, 100).
	cut := min(float64(*days)/4, 100)
	util, grib, gribMax := res.SteadyState(cut)
	fmt.Fprintf(stderr, "\n# steady state after day %.0f (paper: util ~50%%, G-RIB mean ~175 / max <=180 at 50x50)\n", cut)
	fmt.Fprintf(stderr, "domains:              %d top-level, %d children\n", *top, *top**children)
	fmt.Fprintf(stderr, "utilization:          %.1f%%\n", util*100)
	fmt.Fprintf(stderr, "G-RIB size:           mean %.1f, max %d\n", grib, gribMax)
	fmt.Fprintf(stderr, "live block requests:  %d (paper: ~37500 at 50x50)\n", res.LiveBlocks)
	fmt.Fprintf(stderr, "requests satisfied:   %d (failed: %d)\n", res.Satisfied, res.Failed)
	fmt.Fprintf(stderr, "expansion events:     %d doublings, %d extra claims, %d replacements, %d releases\n",
		res.ChildStats.Doublings, res.ChildStats.ExtraClaims, res.ChildStats.Replacements, res.ChildStats.Releases)

	snap := ob.Snapshot()
	if err := of.Finish(stderr, snap.Totals(), snap.Prometheus(), ob.Tracer().Records()); err != nil {
		return usage("%v", err)
	}
	return 0
}
