package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// TestWorldBuildReportsBadWorlds breaks PaperWorld one way at a time and
// requires each break back as Build's error: a router in two domains, a
// link inside one domain, a link to a router nobody has, and a MASC peering
// with a domain nobody has.
func TestWorldBuildReportsBadWorlds(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(w *World)
		want   string
	}{
		{"duplicate router", func(w *World) { w.Domains[7].Routers = []wire.RouterID{81, 72} }, "duplicate router 72"},
		{"link inside a domain", func(w *World) { w.Links[0] = [2]wire.RouterID{11, 14} }, "same domain"},
		{"link to an unknown router", func(w *World) { w.Links[0] = [2]wire.RouterID{51, 99} }, "unknown router"},
		{"siblings with an unknown domain", func(w *World) { w.Siblings[2] = [2]wire.DomainID{4, 9} }, "unknown domain"},
		{"a child of an unknown domain", func(w *World) { w.Children[4] = [2]wire.DomainID{9, 8} }, "unknown domain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := PaperWorld()
			tc.mutate(&w)
			_, err := w.Build(Config{Synchronous: true, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if _, err := PaperWorld().Build(Config{Synchronous: true, Seed: 1}); err != nil {
		t.Fatalf("Build(PaperWorld) = %v", err)
	}
}

// TestBgmpdScriptOnSyncPaperWorld replays cmd/bgmpd's script on a
// synchronous PaperWorld: A claims a /16, B and C a 256 each inside it, a
// session in B leases a group, hosts at node 1 of B, C, D, F and H join,
// and hosts in D and E send — D, E, D as bgmpd does, then on alternately
// until each has sent five packets. With source branches off, every member
// domain gets exactly one copy of every packet. With them on, F is
// multihomed (F1 on B's shared tree, F2 on A toward D and E) and may get a
// second copy while F2's (S,G) branch toward a new source takes over (§5.3,
// Known deviation 4); the test allows that during each sender's first three
// packets and requires exactly one copy after.
func TestBgmpdScriptOnSyncPaperWorld(t *testing.T) {
	const (
		wait       = 2 * time.Second // bgmpd's default -wait
		switchover = 3               // a sender's packets that may arrive twice at F
	)
	members := []wire.DomainID{2, 3, 4, 6, 8}
	for _, seed := range []int64{1998, 1, 42} {
		for _, branches := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/branches=%v", seed, branches), func(t *testing.T) {
				clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
				n, err := PaperWorld().Build(Config{Clock: clk, Seed: seed, MASCWait: wait, Synchronous: true, SourceBranches: branches})
				if err != nil {
					t.Fatal(err)
				}
				if !n.Domain(1).MASC().RequestSpace(1<<16, 48*time.Hour) {
					t.Fatal("A's claim selection failed")
				}
				clk.RunFor(wait + 500*time.Millisecond)
				for _, id := range []wire.DomainID{2, 3} {
					if !n.Domain(id).MASC().RequestSpace(256, 24*time.Hour) {
						t.Fatalf("domain %d's claim selection failed", id)
					}
				}
				clk.RunFor(wait + 500*time.Millisecond)
				lease, err := n.Domain(2).NewGroup(12 * time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range members {
					n.Domain(id).Join(lease.Addr, 1)
				}
				sent := map[wire.DomainID]int{}
				for i := 0; i < 10; i++ {
					from := []wire.DomainID{4, 5}[i%2]
					sent[from]++
					for _, d := range n.Domains() {
						d.ClearReceived()
					}
					n.Domain(from).Send(lease.Addr, n.Domain(from).HostAddr(1), "script", 1)
					for _, d := range n.Domains() {
						got, member := len(d.Received()), slices.Contains(members, d.ID)
						switch {
						case !member && got != 0:
							t.Errorf("send %d from %d: non-member domain %d got %d copies", i+1, from, d.ID, got)
						case !member:
						case got == 1:
						case branches && d.ID == 6 && got == 2 && sent[from] <= switchover:
						default:
							t.Errorf("send %d (packet %d from %d): member domain %d got %d copies", i+1, sent[from], from, d.ID, got)
						}
					}
				}
				noViolations(t, "after the sends", violations(n, nil, nil))
			})
		}
	}
}
