// Command treesim regenerates the paper's Figure 4 (§5.4): path-length
// overhead of unidirectional, bidirectional, and hybrid inter-domain
// multicast trees relative to source-rooted shortest-path trees, as the
// number of receivers grows from 1 to 1000 on a 3326-domain topology.
//
// The paper derived its topology from Oregon route-views BGP dumps; this
// reproduction synthesizes an AS-like graph with the same node count (see
// DESIGN.md §2).
//
// Usage:
//
//	treesim [-domains 3326] [-peering 350] [-seed 1998] [-trials 5]
//	        [-sizes 1,2,5,...] [-random-root] [-summary]
//	        [-metrics] [-trace] [-trace-out spans.json]
//
// -trace-out records one causal span per sampled group (the tree build
// plus its delivery sampling) and writes Chrome trace-event JSON; the file
// is byte-identical for the same seed.
//
// Bad flag values (fewer than 2 domains, no trials, a malformed -sizes
// entry) exit with status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mascbgmp"
	"mascbgmp/cmd/internal/obsflags"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes the CSV to stdout
// and everything else to stderr, and returns the exit code (2 usage or
// unwritable output file), so the tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("treesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		domains    = fs.Int("domains", 3326, "number of domains (paper: 3326)")
		peering    = fs.Int("peering", 350, "extra peering links in the synthetic topology")
		seed       = fs.Int64("seed", 1998, "random seed")
		trials     = fs.Int("trials", 5, "trials per group size")
		sizes      = fs.String("sizes", "", "comma-separated receiver counts (default: the paper's 1..1000 sweep)")
		randomRoot = fs.Bool("random-root", false, "ablation: root the bidirectional tree at a random domain instead of the initiator's")
		summary    = fs.Bool("summary", false, "print only the overall summary")
		of         obsflags.Flags
	)
	of.Register(fs, "metrics", "trace", "trace-out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "treesim: "+format+"\n", a...)
		return 2
	}
	if *domains < 2 {
		return usage("-domains must be at least 2, got %d", *domains)
	}
	if *trials < 1 {
		return usage("-trials must be at least 1, got %d", *trials)
	}

	cfg := mascbgmp.DefaultFig4Config()
	cfg.Domains = *domains
	cfg.ExtraPeering = *peering
	cfg.Seed = *seed
	cfg.Trials = *trials
	cfg.RandomRoot = *randomRoot
	if *sizes != "" {
		cfg.GroupSizes = nil
		for _, f := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return usage("bad -sizes entry %q", f)
			}
			cfg.GroupSizes = append(cfg.GroupSizes, n)
		}
	}

	ob := of.Observer(*seed, stderr)
	cfg.Obs = ob

	pts := mascbgmp.RunFig4(cfg)

	if !*summary {
		fmt.Fprintln(stdout, "receivers,uni_avg,uni_max,bidir_avg,bidir_max,hybrid_avg,hybrid_max,tree_size")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%d,%.3f,%.2f,%.3f,%.2f,%.3f,%.2f,%.0f\n",
				p.Receivers, p.UniAvg, p.UniMax, p.BidirAvg, p.BidirMax, p.HybridAvg, p.HybridMax, p.TreeSize)
		}
	}

	// Overall averages across sizes ≥ 10 (the regime the paper's text
	// quotes: hybrid <1.2x avg / <=4x max, bidirectional <1.3x / <=4.5x,
	// unidirectional ~2x / <=6x).
	var uni, bidir, hybrid, uniMax, bidirMax, hybridMax float64
	n := 0
	for _, p := range pts {
		if p.Receivers < 10 {
			continue
		}
		uni += p.UniAvg
		bidir += p.BidirAvg
		hybrid += p.HybridAvg
		if p.UniMax > uniMax {
			uniMax = p.UniMax
		}
		if p.BidirMax > bidirMax {
			bidirMax = p.BidirMax
		}
		if p.HybridMax > hybridMax {
			hybridMax = p.HybridMax
		}
		n++
	}
	if n > 0 {
		uni /= float64(n)
		bidir /= float64(n)
		hybrid /= float64(n)
	}
	fmt.Fprintf(stderr, "\n# overhead vs shortest-path tree, groups >= 10 receivers (avg / worst)\n")
	fmt.Fprintf(stderr, "unidirectional (PIM-SM model):  %.2fx / %.1fx   (paper: ~2x / <=6x)\n", uni, uniMax)
	fmt.Fprintf(stderr, "bidirectional  (BGMP):          %.2fx / %.1fx   (paper: <1.3x / <=4.5x)\n", bidir, bidirMax)
	fmt.Fprintf(stderr, "hybrid (BGMP + src branches):   %.2fx / %.1fx   (paper: <1.2x / <=4x)\n", hybrid, hybridMax)

	if err := of.Finish(stderr, ob.Snapshot().Totals(), "", ob.Tracer().Records()); err != nil {
		return usage("%v", err)
	}
	return 0
}
