package bgmp

import (
	"math/rand"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/wire"
)

// TestStateConservation is the per-router half of "no router keeps state
// with neither a member nor a child below it": random joins, prunes,
// source joins and source prunes from several children over a few groups,
// interleaved with G-RIB changes (RouteChanged) and session failures
// (PeerDown), must leave nothing behind once every child has pruned what
// it joined. A child peer whose session failed prunes nothing afterwards:
// PeerDown stands for the prunes it can no longer send.
func TestStateConservation(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		conserve(t, seed)
	}
}

func conserve(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rig := newRig(1, 5, true)
	backups := map[addr.Addr]bgp.Entry{}
	rig.comp.cfg.LookupGroupBackup = func(g addr.Addr) (best, backup bgp.Entry, ok, hasBackup bool) {
		best, ok = rig.groups[g]
		backup, hasBackup = backups[g]
		return best, backup, ok, ok && hasBackup
	}
	groups := []addr.Addr{
		addr.MakeAddr(224, 0, 128, 1), addr.MakeAddr(224, 0, 128, 2), addr.MakeAddr(224, 0, 129, 1),
	}
	sources := []addr.Addr{addr.MakeAddr(10, 1, 2, 3), addr.MakeAddr(10, 9, 9, 9)}
	cover := addr.MustParsePrefix("224.0.128.0/23")
	// Routes toward the root domain (or the source): two external parents,
	// a sibling border, this domain itself, or none at all.
	routes := []*bgp.Entry{
		{Route: wire.Route{Origin: 9}, NextHop: 7},
		{Route: wire.Route{Origin: 9}, NextHop: 8},
		{Route: wire.Route{Origin: 9}, NextHop: 101},
		{Route: wire.Route{Origin: 5}},
		nil,
	}
	set := func(m map[addr.Addr]bgp.Entry, a addr.Addr) {
		if r := routes[rng.Intn(len(routes))]; r != nil {
			m[a] = *r
		} else {
			delete(m, a)
		}
	}
	for _, g := range groups {
		set(rig.groups, g)
		set(backups, g)
	}
	for _, s := range sources {
		set(rig.srcs, s)
	}

	// Children: two external peers, two sibling borders, and the interior
	// (group interest only — LocalJoin/LocalLeave).
	children := []Target{PeerTarget(20), PeerTarget(21), MIGPToward(102), MIGPToward(103), MIGPTarget}
	type sg struct{ s, g addr.Addr }
	joined := map[Target]map[addr.Addr]bool{}
	srcJoined := map[Target]map[sg]bool{}
	for _, c := range children {
		joined[c], srcJoined[c] = map[addr.Addr]bool{}, map[sg]bool{}
	}
	send := func(c Target, msg wire.Message) {
		if c.MIGP {
			rig.comp.HandleFromBorder(c.Router, msg)
		} else {
			rig.comp.HandlePeer(c.Router, msg)
		}
	}
	join := func(c Target, g addr.Addr) {
		if c == MIGPTarget {
			rig.comp.LocalJoin(g)
		} else {
			send(c, &wire.GroupJoin{Group: g})
		}
	}
	prune := func(c Target, g addr.Addr) {
		if c == MIGPTarget {
			rig.comp.LocalLeave(g)
		} else {
			send(c, &wire.GroupPrune{Group: g})
		}
	}

	for step := 0; step < 60; step++ {
		c := children[rng.Intn(len(children))]
		g := groups[rng.Intn(len(groups))]
		k := sg{sources[rng.Intn(len(sources))], g}
		switch op := rng.Intn(10); {
		case op < 3:
			join(c, g)
			joined[c][g] = true
		case op < 5:
			prune(c, g)
			delete(joined[c], g)
		case op < 6 && c != MIGPTarget:
			send(c, &wire.SourceJoin{Group: k.g, Source: k.s})
			srcJoined[c][k] = true
		case op < 7 && c != MIGPTarget:
			send(c, &wire.SourcePrune{Group: k.g, Source: k.s})
			delete(srcJoined[c], k)
		case op < 9:
			set(rig.groups, g)
			set(backups, g)
			rig.comp.RouteChanged(cover, wire.TraceContext{})
		default:
			p := []wire.RouterID{7, 8, 20, 21}[rng.Intn(4)]
			rig.comp.PeerDown(p, wire.TraceContext{})
			clear(joined[PeerTarget(p)])
			clear(srcJoined[PeerTarget(p)])
		}
	}

	// Every child retracts what it joined: source interest first,
	// then group interest, children in a fixed order.
	for _, c := range children {
		for _, s := range sources {
			for _, g := range groups {
				if srcJoined[c][sg{s, g}] {
					send(c, &wire.SourcePrune{Group: g, Source: s})
				}
			}
		}
		for _, g := range groups {
			if joined[c][g] {
				prune(c, g)
			}
		}
	}

	if gs, ss := rig.comp.StateSize(); gs != 0 || ss != 0 {
		t.Errorf("seed %d: StateSize = (%d, %d) after every child pruned, want (0, 0)", seed, gs, ss)
	}
	for _, g := range groups {
		if rig.comp.Orphaned(g) {
			t.Errorf("seed %d: group %v still orphaned", seed, g)
		}
		if rig.comp.HasForwardingState(g) {
			t.Errorf("seed %d: group %v still has forwarding state", seed, g)
		}
	}
}
