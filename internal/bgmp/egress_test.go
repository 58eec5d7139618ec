package bgmp

import (
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/wire"
)

// TestOneNextHopRule pins that the (*,G) parent, its precomputed backup, the
// (S,G) parent and the off-tree data path all answer through Egress.Resolve:
// each RIB view is scripted with the same entry and must produce the same
// target. Router 1 of domain 5; routers >= 100 are sibling borders.
func TestOneNextHopRule(t *testing.T) {
	cases := []struct {
		name string
		ent  bgp.Entry
		ok   bool
		want Target
		here bool
	}{
		{"originated by this domain", bgp.Entry{Route: wire.Route{Origin: 5}, NextHop: 102}, true, MIGPTarget, true},
		{"local", bgp.Entry{Route: wire.Route{Origin: 9}, Local: true}, true, MIGPTarget, true},
		// bgp sets NextHop to the own router exactly when Local, so this arm
		// changes nothing for real entries — for the source view either.
		{"next hop is this router", bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 1}, true, MIGPTarget, true},
		{"sibling border", bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 103}, true, MIGPToward(103), false},
		{"external peer", bgp.Entry{Route: wire.Route{Origin: 9}, NextHop: 7}, true, PeerTarget(7), false},
		{"no route", bgp.Entry{}, false, Target{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lookup := func(addr.Addr) (bgp.Entry, bool) { return tc.ent, tc.ok }
			migp := newFakeMIGP()
			var sent []relayed
			c := New(Config{
				Router: 1, Domain: 5,
				LookupGroup: lookup, LookupGroupBackup: lookup, LookupSource: lookup,
				Internal: func(id wire.RouterID) bool { return id >= 100 },
				SendPeer: func(to wire.RouterID, m wire.Message) { sent = append(sent, relayed{to, m}) },
				MIGP:     migp,
			})
			if tc.ok {
				if next, here := c.eg.Resolve(tc.ent); next != tc.want || here != tc.here {
					t.Fatalf("Resolve = %v here=%v, want %v here=%v", next, here, tc.want, tc.here)
				}
			}
			for i, view := range []func(addr.Addr) (bgp.Entry, bool){
				c.cfg.LookupGroup, c.cfg.LookupGroupBackup, c.cfg.LookupSource,
			} {
				if next, here, ok := c.resolve(view, groupG); next != tc.want || here != tc.here || ok != tc.ok {
					t.Errorf("view %d: resolve = %v here=%v ok=%v, want %v here=%v ok=%v",
						i, next, here, ok, tc.want, tc.here, tc.ok)
				}
			}

			// The same answers, seen through the component's own state.
			c.HandlePeer(8, &wire.GroupJoin{Group: groupG})
			parent, _, ok := c.GroupEntry(groupG)
			if ok != tc.ok || parent != tc.want {
				t.Errorf("(*,G) parent = %v ok=%v, want %v ok=%v", parent, ok, tc.want, tc.ok)
			}
			if backup, ok := c.BackupParent(groupG); ok != tc.ok || backup != tc.want {
				t.Errorf("backup parent = %v ok=%v, want %v ok=%v", backup, ok, tc.want, tc.ok)
			}
			other := groupG + 1 // no (*,G) state, so the (S,G) join resolves toward the source
			c.HandlePeer(8, &wire.SourceJoin{Group: other, Source: sourceS})
			if parent, _, ok := c.SourceEntry(sourceS, other); ok != tc.ok || parent != tc.want {
				t.Errorf("(S,G) parent = %v ok=%v, want %v ok=%v", parent, ok, tc.want, tc.ok)
			}

			// Off-tree data from a peer follows the same target: injected
			// when the way on is interior, sent on when it is a peer.
			sent, migp.injected = nil, nil
			d := data(16)
			d.Group = groupG + 2
			c.Deliver(PeerTarget(8), d)
			switch {
			case !tc.ok:
				if len(sent)+len(migp.injected) != 0 {
					t.Errorf("data without a route must drop: sent=%v injected=%v", sent, migp.injected)
				}
			case tc.want.MIGP:
				if len(migp.injected) != 1 || len(sent) != 0 {
					t.Errorf("data must enter the interior once: sent=%v injected=%v", sent, migp.injected)
				}
			default:
				if len(sent) != 1 || sent[0].to != tc.want.Router || len(migp.injected) != 0 {
					t.Errorf("data must go to peer %d: sent=%v injected=%v", tc.want.Router, sent, migp.injected)
				}
			}
		})
	}
}
