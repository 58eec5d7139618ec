package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// loads returns n payloads no two of which share content or length, so that
// a packet read after its buffer went back into use shows as a payload
// nobody sent, or as a sent one counted wrong.
func loads(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("load %03d ", i) + strings.Repeat(string(rune('a'+i%26)), 3+i*7)
	}
	return out
}

// requireCopies checks a domain's delivery log against what was sent: copies
// of every payload, and no payload that was not sent. One line per domain,
// naming the first payload of each kind.
func requireCopies(t *testing.T, where string, d *Domain, sent []string, copies int) {
	t.Helper()
	got := map[string]int{}
	for _, dv := range d.Received() {
		got[dv.Payload]++
	}
	miscounted, first := 0, ""
	for _, p := range sent {
		if got[p] != copies {
			if miscounted++; first == "" {
				first = fmt.Sprintf("%.12q (%d bytes) %d times", p, len(p), got[p])
			}
		}
		delete(got, p)
	}
	if miscounted > 0 {
		t.Errorf("%s: domain %d holds %d of %d payloads other than %d times each, first %s", where, d.ID, miscounted, len(sent), copies, first)
	}
	strangers := 0
	for _, dv := range d.Received() {
		if got[dv.Payload] > 0 {
			if strangers++; strangers == 1 {
				first = fmt.Sprintf("%.40q (%d bytes)", dv.Payload, len(dv.Payload))
			}
		}
	}
	if strangers > 0 {
		t.Errorf("%s: domain %d holds %d deliveries of payloads nobody sent, first %s", where, d.ID, strangers, first)
	}
}

// TestDeferredSendsOwnTheirPackets holds the ownership rule where it bites: a
// *wire.Data handed to a sender is valid until Send returns, and on a
// synchronous network it is a recycled packet (Network.packets) the next hop
// decodes over. The fault plane delays every data packet, swaps neighbours
// and duplicates on two links, so every copy of sixty sends is parked in a
// closure — across other sends that reuse the same packets — before the sim
// clock releases it. Each member domain must then hold every payload, whole,
// as often as the duplicating links on its path make it: twice off the root,
// four times behind the hub. Without faultSender's copy the parked closures
// all read the last packet decoded.
func TestDeferredSendsOwnTheirPackets(t *testing.T) {
	const transit, members, behind = 2, 2, 2
	for _, backend := range dataplane.Names() {
		src, g := chainNetFaults(t, backend, transit, members, behind, true)
		n, plane, clk := src.net, src.net.cfg.Faults, src.net.Clock().(*simclock.Sim)
		root, hub := wire.RouterID(transit+2), wire.RouterID(transit+3+members)
		slow := faultinject.LinkFaults{Delay: 10 * time.Millisecond, Reorder: 0.4, Classes: faultinject.MaskData}
		twice := slow
		twice.Dup = 1
		plane.SetDefault(slow)
		plane.SetLink(1, 2, twice)
		plane.SetLink(root, hub, twice)

		sent := loads(60)
		for i, p := range sent {
			src.Send(g, src.HostAddr(0), p, 0)
			if i%7 == 0 {
				clk.RunFor(3 * time.Millisecond) // some hops run between sends, most after
			}
		}
		for i := 0; i < 2*(transit+4); i++ { // a held packet can be held again at every hop
			clk.RunFor(time.Second)
			plane.FlushHeld()
		}
		for _, d := range n.Domains() {
			switch id := wire.RouterID(d.ID); {
			case id <= root || id == hub:
				requireCopies(t, backend, d, nil, 0)
			case id < hub:
				requireCopies(t, backend, d, sent, 2)
			default:
				requireCopies(t, backend, d, sent, 4)
			}
		}
		if st := plane.Stats(); st.Delayed == 0 || st.Reordered == 0 || st.Duplicated == 0 {
			t.Errorf("%s: the plane delayed %d, reordered %d and duplicated %d packets; the test needs all three", backend, st.Delayed, st.Reordered, st.Duplicated)
		}
	}
}

// TestRelayedPacketsStayWhole is the same payload check on the Fig 3(b)
// internetwork with source-specific branches on: multi-border domains relay
// recycled packets border to border through the interior, F1 encapsulates to
// F2 (§5.3), handleEncap decapsulates and the branch takes over — paths no
// chain of single-router domains reaches. Once each sender's branch has
// formed, every member domain holds every payload exactly once.
func TestRelayedPacketsStayWhole(t *testing.T) {
	for _, backend := range dataplane.Names() {
		n, clk := paperNetDP(t, true, true, backend, nil)
		g := establishGroup(t, n, clk)
		senders := []wire.DomainID{4, 5, 8, 1}
		for _, s := range senders {
			for i := 0; i < 3; i++ { // the encapsulated, the transitional and the first native packet
				n.Domain(s).Send(g, n.Domain(s).HostAddr(1), "warm-up", 1)
			}
		}
		for _, d := range n.Domains() {
			d.ClearReceived()
		}
		sent := loads(60)
		for i, p := range sent {
			s := n.Domain(senders[i%len(senders)])
			s.Send(g, s.HostAddr(1), p, 1)
		}
		for _, d := range n.Domains() {
			if slices.Contains(paperMembers, d.ID) {
				requireCopies(t, backend, d, sent, 1)
			} else {
				requireCopies(t, backend, d, nil, 0)
			}
		}
	}
}

// TestTTLReach: a packet sent with TTL k is delivered in the domains up to
// k−1 peerings from its source and in none beyond, on every backend — the
// sender refuses a packet with no TTL to spend and forwards any other
// unchanged (bgmp.Egress.ToPeer), the receiver spends the hop's
// (Router.dispatch). The chain is source – 2 transit – root, members one
// peering off the root, two more behind a memberless hub.
func TestTTLReach(t *testing.T) {
	const transit, members, behind = 2, 2, 2
	for _, backend := range dataplane.Names() {
		src, g := chainNet(t, backend, transit, members, behind)
		root, hub := wire.DomainID(transit+2), wire.DomainID(transit+3+members)
		for k := 0; k <= 8; k++ {
			src.Fabric().SendFromHost(0, &wire.Data{Group: g, Source: src.HostAddr(0), TTL: uint8(k), Payload: []byte("reach")})
			for _, d := range src.net.Domains() {
				want := 0
				switch away := int(root) - 1; { // peerings between the source and the root
				case d.ID <= root || d.ID == hub:
				case d.ID < hub && away+1 <= k-1, d.ID > hub && away+2 <= k-1:
					want = 1
				}
				if got := len(d.Received()); got != want {
					t.Errorf("%s, TTL %d: domain %d received %d copies, want %d", backend, k, d.ID, got, want)
				}
				d.ClearReceived()
			}
		}
	}
}
