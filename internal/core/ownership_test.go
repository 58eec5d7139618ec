package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mascbgmp/internal/addr"
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
		src, g := chainNet(t, transit, members, behind, netOpts{backend: backend, faults: true})
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

// TestDeferredControlMessagesOwnTheirContent holds the ownership rule for
// control messages: a join, a prune or a MemberReport handed to a sender is
// the sender's again when Send returns, and BGMP's free lists and the
// overlays' scratch write the next one into it. The fault plane delays
// every control message and duplicates those on the far end's link, so the
// joins of six groups from the chain's far end, and then their prunes, are
// all parked in closures before the sim clock releases any. After the joins
// each group must reach the far end once, and after the prunes no router on
// the way may hold state for any of them, nor the root's overlay store
// count the far end a member. Without faultSender's copy the parked
// closures all read the cleared message that went back on the free list.
func TestDeferredControlMessagesOwnTheirContent(t *testing.T) {
	const transit = 2
	for _, backend := range dataplane.Names() {
		far, _ := chainNet(t, transit, 1, 0, netOpts{backend: backend, faults: true})
		n, plane, clk := far.net, far.net.cfg.Faults, far.net.Clock().(*simclock.Sim)
		root := n.Domain(wire.DomainID(transit + 2))
		groups := make([]addr.Addr, 6)
		for i := range groups {
			lease, err := root.NewGroup(24 * time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			groups[i] = lease.Addr
		}
		slow := faultinject.LinkFaults{Delay: 10 * time.Millisecond, Classes: faultinject.MaskControl}
		twice := slow
		twice.Dup = 1
		plane.SetDefault(slow)
		plane.SetLink(1, 2, twice)
		release := func() {
			for range 2 * (transit + 2) { // a parked message's successors are parked at every hop
				clk.RunFor(time.Second)
				plane.FlushHeld()
			}
		}

		for _, g := range groups {
			far.Join(g, 0)
		}
		release()
		for _, g := range groups {
			root.Send(g, root.HostAddr(0), "down", 0)
			if got := len(far.Received()); got != 1 {
				t.Errorf("%s: group %v reached the far end %d times after its join, want once", backend, g, got)
			}
			far.ClearReceived()
		}

		for _, g := range groups {
			far.Leave(g, 0)
		}
		release()
		for _, g := range groups {
			for id := wire.DomainID(1); id <= root.ID; id++ {
				if r := n.Domain(id).Routers()[0]; r.DataPlane().HasForwardingState(g) {
					t.Errorf("%s: router %d holds state for group %v after its prune", backend, r.ID, g)
				}
			}
			if slices.Contains(root.dpStore.AppendMembers(nil, g), far.ID) {
				t.Errorf("%s: the root's store counts domain %d a member of %v after its leave", backend, far.ID, g)
			}
		}
		if st := plane.Stats(); st.Delayed == 0 || st.Duplicated == 0 {
			t.Errorf("%s: the plane delayed %d and duplicated %d messages; the test needs both", backend, st.Delayed, st.Duplicated)
		}
	}
}

// recorder is a sender that keeps the frame of every message it is handed.
type recorder struct{ frames *[]string }

func (r recorder) Send(m wire.Message) error {
	*r.frames = append(*r.frames, string(wire.Encode(m)))
	return nil
}

func (recorder) Close() error { return nil }

// TestFaultSenderDefersCopies: every type of peering message that the fault
// plane delays and duplicates reaches the real sender twice, as it was when
// faultSender.Send was called, although its sender decoded the next message
// of the type into it — lists in place — as soon as Send returned, as the
// network's inbox and BGMP's free lists do.
func TestFaultSenderDefersCopies(t *testing.T) {
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	plane, err := faultinject.New(faultinject.Config{Clock: clk, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	plane.SetDefault(faultinject.LinkFaults{Delay: time.Millisecond, Dup: 1})
	var got []string
	f := &faultSender{plane: plane, from: 1, to: 2, inner: recorder{&got}}
	// Two messages of each type, with lists of one length.
	messages := func(i byte) []wire.Message {
		g, s := addr.MakeAddr(224, 1, i, 1), addr.MakeAddr(10, i, 0, 1)
		p := addr.Prefix{Base: addr.MakeAddr(224, 1, i, 0), Len: 24}
		u := &wire.Update{Table: wire.TableGRIB, Withdrawn: []addr.Prefix{p},
			Routes: []wire.Route{{Prefix: p, ASPath: []wire.DomainID{wire.DomainID(i), 4}, Origin: 4}}}
		join := &wire.GroupJoin{Group: g}
		wire.Stamp(join, wire.TraceContext{Trace: uint64(i) + 1, Span: 1})
		return []wire.Message{u, join, &wire.GroupPrune{Group: g}, &wire.SourceJoin{Group: g, Source: s},
			&wire.SourcePrune{Group: g, Source: s}, &wire.MemberReport{Group: g, Domain: wire.DomainID(i)},
			&wire.Data{Group: g, Source: s, TTL: 9, Bits: []uint64{uint64(i)}, Payload: []byte{'p', i}}}
	}
	sent, next := messages(1), messages(2)
	var want []string
	for i, m := range sent {
		frame := string(wire.Encode(m))
		want = append(want, frame, frame)
		if err := f.Send(m); err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeInto(wire.Encode(next[i]), m); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunFor(time.Second)
	if !slices.Equal(got, want) {
		t.Errorf("the fault plane released\n%q\nwant every message twice, as sent:\n%q", got, want)
	}
}

// TestDeliveriesShareTheSendersPayload: on a synchronous shared tree, every
// member's Delivery of one send holds the very string passed to Domain.Send,
// not a copy of its bytes, whichever of two payloads of one length is sent.
func TestDeliveriesShareTheSendersPayload(t *testing.T) {
	src, g := chainNet(t, 2, 5, 3, netOpts{backend: dataplane.SharedTreeName})
	for _, payload := range []string{strings.Repeat("a", 100), strings.Repeat("b", 100)} {
		src.Send(g, src.HostAddr(0), payload, 0)
		shared := 0
		for _, d := range src.net.Domains() {
			for _, dv := range d.Received() {
				if dv.Payload != payload || unsafe.StringData(dv.Payload) != unsafe.StringData(payload) {
					t.Errorf("domain %d logged %.12q at %p, want the sender's %.12q at %p",
						d.ID, dv.Payload, unsafe.StringData(dv.Payload), payload, unsafe.StringData(payload))
				}
				shared++
			}
			d.ClearReceived()
		}
		if shared != 8 {
			t.Errorf("%d deliveries of one send, want one in each of 8 member domains", shared)
		}
	}
}

// TestConcurrentSendsLogTheirOwnPayloads: on an asynchronous network, two
// goroutines send different payloads to one group at once, so that one
// send's copies arrive while the network holds the other's payload as the
// latest sent. Every member must log exactly the payloads that were sent,
// each once, on every backend.
func TestConcurrentSendsLogTheirOwnPayloads(t *testing.T) {
	for _, backend := range dataplane.Names() {
		n, g := asyncNet(t, backend, nil)
		const perSender = 20
		senders := []*Domain{n.Domain(1), n.Domain(2)}
		sent := make([][]string, len(senders))
		var wg sync.WaitGroup
		for i, s := range senders {
			sent[i] = make([]string, perSender)
			for k := range sent[i] {
				sent[i][k] = fmt.Sprintf("from %d, packet %02d", s.ID, k)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, p := range sent[i] {
					s.Send(g, s.HostAddr(1), p, 0)
				}
			}()
		}
		wg.Wait()
		if err := n.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireCopies(t, backend, n.Domain(3), append(sent[0], sent[1]...), 1)
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
		src, g := chainNet(t, transit, members, behind, netOpts{backend: backend})
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

// TestRecycledStateSurvivesConcurrentChurn: on an asynchronous network, two
// domains join and leave a second group over and over while its root domain
// sends to it, so that (*,G) entries and member sets are torn down, kept and
// rebuilt from the free lists while other goroutines forward through them.
// Afterwards every router holds the state it held before, and the group
// reaches a member that joins it exactly once, on every backend. Under -race
// an entry or member set handed back while still in use is a report.
func TestRecycledStateSurvivesConcurrentChurn(t *testing.T) {
	for _, backend := range dataplane.Names() {
		n, _ := asyncNet(t, backend, nil)
		lease, err := n.Domain(2).NewGroup(24 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		g := lease.Addr
		state := func() (s []int) {
			for _, d := range n.Domains() {
				for _, r := range d.Routers() {
					groups, sources := r.BGMP().StateSize()
					s = append(s, groups, sources)
				}
			}
			return s
		}
		before := state()
		const cycles = 30
		var wg sync.WaitGroup
		for _, d := range []*Domain{n.Domain(1), n.Domain(3)} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range cycles {
					d.Join(g, 0)
					d.Leave(g, 0)
				}
			}()
		}
		root := n.Domain(2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range cycles {
				root.Send(g, root.HostAddr(1), "churn", 0)
			}
		}()
		wg.Wait()
		if err := n.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if after := state(); !slices.Equal(after, before) {
			t.Fatalf("%s: routers' (*,G)/(S,G) counts %v after the churn, %v before", backend, after, before)
		}
		for _, d := range n.Domains() {
			d.ClearReceived()
		}
		n.Domain(3).Join(g, 0)
		if err := n.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		root.Send(g, root.HostAddr(1), "after", 0)
		if err := n.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireCopies(t, backend, n.Domain(3), []string{"after"}, 1)
	}
}
