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
//  5. hosts in D (member) and E (non-member sender) transmit, and the
//     daemon reports which domains received each packet.
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
	net, err := mascbgmp.NewNetwork(mascbgmp.Config{
		Seed:           1998,
		MASCWait:       wait,
		SourceBranches: branches,
		Observer:       ob,
	})
	if err != nil {
		return err
	}

	type dom struct {
		id      mascbgmp.DomainID
		name    string
		routers []mascbgmp.RouterID
		top     bool
	}
	doms := []dom{
		{1, "A", []mascbgmp.RouterID{11, 12, 13, 14}, true},
		{2, "B", []mascbgmp.RouterID{21, 22}, false},
		{3, "C", []mascbgmp.RouterID{31, 32}, false},
		{4, "D", []mascbgmp.RouterID{41}, true},
		{5, "E", []mascbgmp.RouterID{51}, true},
		{6, "F", []mascbgmp.RouterID{61, 62}, false},
		{7, "G", []mascbgmp.RouterID{71, 72}, false},
		{8, "H", []mascbgmp.RouterID{81}, false},
	}
	names := map[mascbgmp.DomainID]string{}
	for _, d := range doms {
		names[d.id] = d.name
		if _, err := net.AddDomain(mascbgmp.DomainConfig{
			ID:            d.id,
			Routers:       d.routers,
			InteriorNodes: len(d.routers) + 2,
			Protocol:      mascbgmp.NewDVMRP(),
			TopLevel:      d.top,
			HostPrefix:    mascbgmp.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", d.id)),
		}); err != nil {
			return err
		}
	}
	links := [][2]mascbgmp.RouterID{
		{51, 11}, {31, 12}, {21, 13}, {41, 14},
		{61, 22}, {71, 32}, {81, 72}, {62, 14},
	}
	for _, l := range links {
		if err := net.Link(l[0], l[1]); err != nil {
			return err
		}
	}
	for _, s := range [][2]mascbgmp.DomainID{{1, 4}, {1, 5}, {4, 5}} {
		if err := net.MASCPeerSiblings(s[0], s[1]); err != nil {
			return err
		}
	}
	for _, pc := range [][2]mascbgmp.DomainID{{1, 2}, {1, 3}, {2, 6}, {3, 7}, {7, 8}} {
		if err := net.MASCPeerParentChild(pc[0], pc[1]); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "built 8 domains, %d TCP-linked border routers\n", 4+2+2+1+1+2+2+1)

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
			return fmt.Errorf("%s's claim selection failed", names[id])
		}
	}
	time.Sleep(wait + 500*time.Millisecond)
	for _, id := range []mascbgmp.DomainID{2, 3} {
		hs := net.Domain(id).MASC().Holdings()
		if len(hs) == 0 {
			return fmt.Errorf("%s's claim never matured", names[id])
		}
		fmt.Fprintf(stdout, "MASC: %s won %v (inside A's range)\n", names[id], hs[0].Prefix)
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
		for _, d := range doms {
			for _, r := range net.Domain(d.id).Routers() {
				parent, children, ok := r.BGMP().GroupEntry(lease.Addr)
				if ok {
					fmt.Fprintf(stdout, "  router %d (%s): (*,G) parent=%v children=%v\n", r.ID, d.name, parent, children)
				}
			}
		}
	}

	send := func(from mascbgmp.DomainID, what string) {
		for _, d := range doms {
			net.Domain(d.id).ClearReceived()
		}
		src := net.Domain(from).HostAddr(1)
		net.Domain(from).Send(lease.Addr, src, what, 1)
		_ = net.Quiesce(3 * time.Second)
		fmt.Fprintf(stdout, "data: host in %s sent %q → received in:", names[from], what)
		for _, d := range doms {
			if got := net.Domain(d.id).Received(); len(got) > 0 {
				fmt.Fprintf(stdout, " %s(x%d)", d.name, len(got))
			}
		}
		fmt.Fprintln(stdout)
	}
	send(4, "hello from member domain D")
	send(5, "hello from non-member sender E") // §3: senders need not be members
	send(4, "second packet from D")           // source-specific branch in steady state

	if metrics {
		fmt.Fprintf(stdout, "\n# per-router protocol counters\n%s", ob.Snapshot())
	}
	fmt.Fprintln(stdout, "done")
	return nil
}
