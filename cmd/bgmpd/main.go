// Command bgmpd runs a complete MASC/BGMP internetwork as concurrent
// border-router processes connected over real loopback TCP sessions, and
// drives the paper's Figure 1 / Figure 3 scenario through it end to end:
//
//  1. backbone domain A claims a /16 from 224/4 via MASC (claim-collide
//     with a configurable waiting period);
//  2. customer domains B and C claim sub-ranges of A's space;
//  3. a session in B leases a group address from B's MAAS, rooting the
//     group's shared tree in B;
//  4. members in C, D, F, and H join, building the bidirectional tree;
//  5. hosts in D (member) and E (non-member sender) transmit: three
//     packets each while source-specific branches settle, and then the
//     packets the daemon reports, with the domains that received each.
//
// Every control and data message crosses a framed TCP connection between
// router goroutines — the deployment shape of the architecture, shrunk
// onto one machine.
//
// Usage:
//
//	bgmpd [-wait 2s] [-branches] [-verbose] [-metrics] [-trace]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mascbgmp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process, for the tests: 2 is a usage error, 1 a failed step.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgmpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wait     = fs.Duration("wait", 2*time.Second, "MASC collision waiting period (paper: 48h)")
		branches = fs.Bool("branches", true, "enable source-specific branches (§5.3)")
		verbose  = fs.Bool("verbose", false, "dump per-router G-RIB tables")
		metrics  = fs.Bool("metrics", false, "dump per-router protocol counters at exit")
		trace    = fs.Bool("trace", false, "print every protocol event to stderr as it happens")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if err := scenario(stdout, stderr, *wait, *branches, *verbose, *metrics, *trace); err != nil {
		fmt.Fprintln(stderr, "bgmpd:", err)
		return 1
	}
	return 0
}

func scenario(stdout, stderr io.Writer, wait time.Duration, branches, verbose, metrics, trace bool) error {
	var ob *mascbgmp.Observer
	if metrics || trace {
		ob = mascbgmp.NewObserver()
		if trace {
			ob.Subscribe(func(e mascbgmp.Event) { fmt.Fprintln(stderr, e) })
		}
	}
	world := mascbgmp.PaperWorld()
	net, err := world.Build(mascbgmp.Config{
		Seed:           1998,
		MASCWait:       wait,
		SourceBranches: branches,
		Observer:       ob,
	})
	if err != nil {
		return err
	}
	routers := 0
	for _, d := range world.Domains {
		routers += len(d.Routers)
	}
	fmt.Fprintf(stdout, "built %d domains, %d TCP-linked border routers\n", len(world.Domains), routers)

	// MASC address allocation, level by level.
	fmt.Fprintf(stdout, "MASC: A claims a /16 from 224/4 (waiting period %v)...\n", wait)
	if !net.Domain(1).MASC().RequestSpace(1<<16, 48*time.Hour) {
		return fmt.Errorf("A's claim selection failed")
	}
	time.Sleep(wait + 500*time.Millisecond)
	holdings := net.Domain(1).MASC().Holdings()
	if len(holdings) == 0 {
		return fmt.Errorf("A's claim never matured")
	}
	fmt.Fprintf(stdout, "MASC: A won %v\n", holdings[0].Prefix)

	for _, id := range []mascbgmp.DomainID{2, 3} {
		if !net.Domain(id).MASC().RequestSpace(256, 24*time.Hour) {
			return fmt.Errorf("%s's claim selection failed", name(id))
		}
	}
	time.Sleep(wait + 500*time.Millisecond)
	for _, id := range []mascbgmp.DomainID{2, 3} {
		hs := net.Domain(id).MASC().Holdings()
		if len(hs) == 0 {
			return fmt.Errorf("%s's claim never matured", name(id))
		}
		fmt.Fprintf(stdout, "MASC: %s won %v (inside A's range)\n", name(id), hs[0].Prefix)
	}
	if err := net.Quiesce(3 * time.Second); err != nil {
		return err
	}

	// Lease a group in B: B becomes the root domain.
	lease, err := net.Domain(2).NewGroup(12 * time.Hour)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	fmt.Fprintf(stdout, "MAAS: session in B leased group %v (root domain: B)\n", lease.Addr)

	// Members join in B, C, D, F, H (Fig 3a).
	for _, id := range []mascbgmp.DomainID{2, 3, 4, 6, 8} {
		net.Domain(id).Join(lease.Addr, 1)
	}
	if err := net.Quiesce(3 * time.Second); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "BGMP: members joined in B, C, D, F, H — bidirectional tree built")

	if verbose {
		for _, d := range net.Domains() {
			for _, r := range d.Routers() {
				parent, children, ok := r.BGMP().GroupEntry(lease.Addr)
				if ok {
					fmt.Fprintf(stdout, "  router %d (%s): (*,G) parent=%v children=%v\n", r.ID, name(d.ID), parent, children)
				}
			}
		}
	}

	transmit := func(from mascbgmp.DomainID, what string) error {
		for _, d := range net.Domains() {
			d.ClearReceived()
		}
		src := net.Domain(from).HostAddr(1)
		net.Domain(from).Send(lease.Addr, src, what, 1)
		if err := net.Quiesce(3 * time.Second); err != nil {
			return fmt.Errorf("after %q: %w", what, err)
		}
		return nil
	}
	// A sender's first packets reach the tree encapsulated while the
	// source-specific branch they set off is built (§5.3), and while it
	// switches over a member may get a copy twice (EXPERIMENTS.md, Known
	// deviation 4): when it settles depends on TCP's timing. The packets
	// below are reported from steady state, after three that are not.
	for _, from := range []mascbgmp.DomainID{4, 5} {
		for i := 0; i < 3; i++ {
			if err := transmit(from, "branch set-up"); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(stdout, "data: 3 unreported packets each from D and E while source-specific branches settle")
	send := func(from mascbgmp.DomainID, what string) error {
		if err := transmit(from, what); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "data: host in %s sent %q → received in:", name(from), what)
		for _, d := range net.Domains() {
			if got := d.Received(); len(got) > 0 {
				fmt.Fprintf(stdout, " %s(x%d)", name(d.ID), len(got))
			}
		}
		fmt.Fprintln(stdout)
		return nil
	}
	if err := send(4, "hello from member domain D"); err != nil {
		return err
	}
	if err := send(5, "hello from non-member sender E"); err != nil { // §3: senders need not be members
		return err
	}
	if err := send(4, "second packet from D"); err != nil {
		return err
	}

	if metrics {
		fmt.Fprintf(stdout, "\n# per-router protocol counters\n%s", ob.Snapshot())
	}
	fmt.Fprintln(stdout, "done")
	return nil
}

// name is a PaperWorld domain's letter in the paper's figures: 1 is A.
func name(id mascbgmp.DomainID) string { return string(rune('A' - 1 + id)) }
