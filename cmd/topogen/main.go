// Command topogen emits synthetic inter-domain topologies in a simple
// edge-list format, for use with treesim-style analyses or external tools.
//
// Two generators are provided: the AS-like preferential-attachment graph
// used as the stand-in for the paper's BGP-dump topology, and the regular
// provider hierarchy of the Figure 2 simulation.
//
// Usage:
//
//	topogen -kind as [-n 3326] [-peering 350] [-seed 1998] [-out net.topo]
//	topogen -kind hierarchy [-top 50] [-children 50] [-out net.topo]
//
// -out writes the edge list to a file instead of stdout; scenario files
// (DESIGN.md §14) reference such files with topology kind "file", so a
// generated topology and a declarative workload form one pipeline.
//
// -seed only applies to the "as" generator. The hierarchy generator is
// fully regular (no randomness), so passing -seed with -kind hierarchy is
// rejected rather than silently ignored.
//
// Output: one "a b" pair per link on stdout, preceded by a comment header
// with graph statistics.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"mascbgmp/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes the edge list to
// stdout (or -out) and diagnostics to stderr, and returns the exit code (2
// usage or unwritable output file), so the tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind     = fs.String("kind", "as", `generator: "as" or "hierarchy"`)
		n        = fs.Int("n", 3326, "domains (as)")
		peering  = fs.Int("peering", 350, "extra peering links (as)")
		seed     = fs.Int64("seed", 1998, "random seed (as only; rejected with -kind hierarchy)")
		top      = fs.Int("top", 50, "top-level domains (hierarchy)")
		children = fs.Int("children", 50, "children per top-level domain (hierarchy)")
		out      = fs.String("out", "", "write the edge list to this file instead of stdout (scenario files reference it via topology kind \"file\")")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "topogen: "+format+"\n", a...)
		return 2
	}

	var g *topology.Graph
	switch *kind {
	case "as":
		g = topology.ASGraph(*n, *peering, *seed)
	case "hierarchy":
		// The hierarchy is deterministic by construction; a -seed here
		// would be silently ignored, which reads like a reproducibility
		// knob that does not exist. Reject it instead.
		seedSet := false
		fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if seedSet {
			return fail("-seed has no effect with -kind hierarchy (the generator is fully regular); drop the flag")
		}
		g, _, _ = topology.Hierarchy(*top, *children)
	default:
		return fail("unknown -kind %q", *kind)
	}

	var buf bytes.Buffer
	if err := topology.WriteEdgeList(&buf, g, *kind); err != nil {
		return fail("%v", err)
	}
	if *out == "" {
		stdout.Write(buf.Bytes())
		return 0
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "topogen: wrote %s (%d domains, %d links)\n", *out, g.NumDomains(), g.NumLinks())
	return 0
}
