package core

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// TestSendAllocBudget pins what one multicast send allocates, exactly, as
//
//	perCopy × copies sent down + perDelivery × member deliveries
//	+ perSplit × bitstring splits + constant
//
// Every backend's row is 2, the packet and its payload, whatever the
// fan-out. A peering hop costs nothing on any backend, up to the root
// domain or down from it: the packet is forwarded as it is and decoded into
// a recycled one (Network.packets), and a native packet enters an interior
// without a copy. A member's Delivery record holds the sender's payload
// string, not a copy of it. The overlays' own copies — the source border's
// tunnel, the root's bitstring or per-member tunnels, BIER's slab and copy
// per next hop, the header a member's border strips — are built in the
// router's recycled scratch (overlay.spare). The per-item terms are kept
// so that a cost creeping back names what it scales with. Every row is the
// measured floor, under go test and go test -race: one allocation more or
// fewer anywhere on the path fails.
//
// Each world has also been sent a MemberReport for a domain no bitstring
// can carry (wire.MaxDataBit): BIER must refuse it rather than size every
// packet's string to it, and the group's members must go on receiving
// exactly one copy.
func TestSendAllocBudget(t *testing.T) {
	budgets := []struct {
		backend                                  string
		perCopy, perDelivery, perSplit, constant int
	}{
		{dataplane.SharedTreeName, 0, 0, 0, 2},
		{dataplane.BIERName, 0, 0, 0, 2},
		{dataplane.MapEncapName, 0, 0, 0, 2},
	}
	for _, b := range budgets {
		// transit domains, members off the root, members behind the hub
		for _, shape := range [][3]int{{1, 1, 0}, {4, 5, 0}, {2, 2, 3}, {6, 1, 4}} {
			transit, members, behind := shape[0], shape[1], shape[2]
			src, g := chainNet(t, transit, members, behind, netOpts{backend: b.backend})
			root := wire.RouterID(transit + 2)
			src.net.Router(root).dispatch(root+1, &wire.MemberReport{Group: g, Domain: 0xFFFFFFFF})
			from := src.HostAddr(0)
			got := int(testing.AllocsPerRun(50, func() { src.Send(g, from, "sixteen byte load", 0) }))

			deliveries, splits := members+behind, 1 // routers with a string to split
			copies := deliveries
			if behind > 0 {
				copies, splits = deliveries+1, 2 // one more for root → hub, which splits again
			}
			budget := b.perCopy*copies + b.perDelivery*deliveries + b.perSplit*splits + b.constant
			if got != budget {
				t.Errorf("%s, shape %v: %d allocations per send, want %d×%d + %d×%d + %d×%d + %d = %d", b.backend, shape,
					got, b.perCopy, copies, b.perDelivery, deliveries, b.perSplit, splits, b.constant, budget)
			}

			var memberDomains []wire.DomainID
			hub := wire.DomainID(transit + 3 + members)
			for _, d := range src.net.Domains() {
				if d.ID > wire.DomainID(root) && d.ID != hub {
					memberDomains = append(memberDomains, d.ID)
				}
			}
			assertExactlyOnce(t, src.net, g, memberDomains, src.ID)
			noViolations(t, fmt.Sprintf("%s, shape %v, after the sends", b.backend, shape), violations(src.net, nil, []addr.Addr{g}))
		}
	}

	// Fig 3(b) with source branches off: F1 holds F on B's shared tree, and
	// F's interior expects D's packets at F2, so F1 encapsulates every one
	// of them to F2, which decapsulates it (§5.3). Each border builds its
	// copy in its recycled spare packet, so the relay costs nothing: a fresh
	// encapsulated copy at F1 and a fresh native one at F2 read 2 more.
	ob := obs.NewObserver()
	n, clk := paperNetDP(t, true, false, dataplane.SharedTreeName, ob)
	g := establishGroup(t, n, clk)
	src := n.Domain(4)
	before := ob.Snapshot()
	got := int(testing.AllocsPerRun(50, func() { src.Send(g, src.HostAddr(1), "sixteen byte load", 0) }))
	if ob.Snapshot().Diff(before).Total(obs.DataEncap) == 0 {
		t.Fatal("Fig 3(b): no send from D was encapsulated; the row would be vacuous")
	}
	if want := budgets[0].constant; got != want {
		t.Errorf("Fig 3(b), encapsulating F1 to F2: %d allocations per send, want %d as on the plain rows", got, want)
	}
	assertExactlyOnce(t, n, g, paperMembers, src.ID)
}

// TestSendAfterChurnAllocBudget pins that a change to a tree or its
// membership leaves nothing for the next send to pay, on every backend: the
// send right after a join from the chain's far end and the leave that
// undoes it, and the sends right after the ring link a member's branch
// leaves on goes down and comes back (each re-parenting its entry), each
// cost the same 2 as the send after them (TestSendAllocBudget's row). A
// forwarder lists an entry's targets into storage of its own under the
// component's lock, and the overlay store rebuilds its sorted member list in
// place and copies it out under its own lock (DESIGN.md §17). When each
// rebuilt into a fresh array, as bgmp's targetCache and the store's list
// did, the send after the join and leave read 2 + 1 on every backend (the
// root's entry, which gained and lost the child, or the root's member
// list), and on the shared tree the sends after the link went down and came
// back read 7 and 5, one per entry the repair touched.
func TestSendAfterChurnAllocBudget(t *testing.T) {
	const payload = "sixteen byte load"
	// sends makes two sends and requires 2 allocations of each; when is
	// "" for the first sends of a world, which fill its free lists and logs.
	sends := func(t *testing.T, net *Network, from *Domain, g addr.Addr, when string) {
		t.Helper()
		send := func() uint64 {
			for _, d := range net.Domains() {
				d.ClearReceived() // the logs keep their arrays: a send appends without growing one
			}
			return mallocs(func() { from.Send(g, from.HostAddr(0), payload, 0) })
		}
		if first, second := send(), send(); when != "" && (first != 2 || second != 2) {
			t.Fatalf("%s: the sends %s allocate %d, then %d; want 2, then 2", net.cfg.DataPlane, when, first, second)
		}
	}
	for _, backend := range dataplane.Names() {
		t.Run(backend, func(t *testing.T) {
			for _, transit := range []int{1, 4} {
				src, g := chainNet(t, transit, 3, 0, netOpts{backend: backend})
				churn := func() { src.Join(g, 0); src.Leave(g, 0) }
				churn()
				sends(t, src.net, src, g, "")
				for i := 0; i < 5; i++ {
					churn()
					sends(t, src.net, src, g, fmt.Sprintf("after a far-end join and leave, %d transit domains", transit))
				}
			}

			const n, chord, a, b = 14, 4, 4, 5 // member domain 4's branch leaves on link 4–5
			net := ringNet(t, n, chord, netOpts{backend: backend})
			lease, err := net.Domain(1).NewGroup(24 * time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []wire.DomainID{a, 7, 11} {
				net.Domain(m).Join(lease.Addr, 0)
			}
			from := net.Domain(9)
			for i := 0; i < 4; i++ { // the first round fills what each state's sends use
				down, back := "with the link down", "with the link back"
				if i == 0 {
					down, back = "", ""
				}
				if err := net.Unlink(a, b); err != nil {
					t.Fatal(err)
				}
				if p, _, ok := net.Router(a).BGMP().GroupEntry(lease.Addr); backend == dataplane.SharedTreeName && (!ok || p == bgmp.PeerTarget(b)) {
					t.Fatalf("with link %d–%d down router %d's parent is %v (ok=%v); the entry was not re-parented", a, b, a, p, ok)
				}
				sends(t, net, from, lease.Addr, down)
				if err := net.Link(a, b); err != nil {
					t.Fatal(err)
				}
				if p, _, _ := net.Router(a).BGMP().GroupEntry(lease.Addr); backend == dataplane.SharedTreeName && p != bgmp.PeerTarget(b) {
					t.Fatalf("with link %d–%d back router %d's parent is %v, want %v", a, b, a, p, bgmp.PeerTarget(b))
				}
				sends(t, net, from, lease.Addr, back)
			}
		})
	}
}

// mallocs counts the heap allocations f makes, on one processor as
// testing.AllocsPerRun counts them, but for one run rather than a mean.
// The pin hides what the Go runtime allocates for itself while a bracket
// is open, which the benchmark's unpinned send_allocs and join_allocs
// count now and then (DESIGN.md §17). When ReadMemStats starts the world
// again with a processor idle, the runtime may start an OS thread for it:
// six allocations (runtime.newm: the m, its cgo traceback buffer, its g0
// and signal goroutine, two profiling stacks). And a background goroutine
// (the unique package's cleanup after a collection, the scavenger's timer)
// may allocate on the other processor while f runs. On one processor
// neither happens unless f blocks or is preempted, which a loaded host can
// still do: TestChurnReplayAllocatesNothing read 1 once in a full test run.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkSendFanOut times one send from the source of a chainNet with two
// transit domains to 30 member domains off the root, on every backend, with
// a 64-byte and a 1400-byte payload: what a send costs per member, in time
// and allocations, at the benchmark's tree-dense fan-out. The delivery logs
// are cleared every 64 sends, off the clock.
func BenchmarkSendFanOut(b *testing.B) {
	for _, backend := range dataplane.Names() {
		for _, size := range []int{64, 1400} {
			b.Run(fmt.Sprintf("%s/%dB", backend, size), func(b *testing.B) {
				src, g := chainNet(b, 2, 30, 0, netOpts{backend: backend})
				from, payload := src.HostAddr(0), strings.Repeat("x", size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Send(g, from, payload, 0)
					if i%64 == 63 {
						b.StopTimer()
						for _, d := range src.net.Domains() {
							d.ClearReceived()
						}
						b.StartTimer()
					}
				}
			})
		}
	}
}

// TestJoinAllocBudget pins that a host Join and the Leave that undoes it
// allocate nothing, on every backend, from the chain's far end across 1 and
// 4 transit domains: AllocsPerRun's warm-up pair fills the free lists, and
// every later pair builds from them. On the shared tree the (*,G) entry a
// join builds at each router, and its child list, is one the prune before
// tore down (bgmp's Component.free); the far end's member set is the one
// its last leave emptied (migp's Fabric keeps it). The GroupJoin and the
// GroupPrune come off their sender's free list and wait in the network's
// queue as frames, each decoded into the network's one message of its type.
// The overlays keep no transit state and relay a MemberReport as received.
// One allocation anywhere between the host and the root fails.
//
// The second half joins more groups at one router before any leaves than a
// free list of fixed size would keep (churnGroups > 16): each router keeps
// as many entries as it holds live, and the far end's routers hold
// churnGroups standing trees beside the churned ones, as a benchmark round's
// routers hold their set-up trees.
func TestJoinAllocBudget(t *testing.T) {
	const churnGroups = 20
	for _, backend := range dataplane.Names() {
		for _, transit := range []int{1, 4} {
			far, g := chainNet(t, transit, 1, 0, netOpts{backend: backend})
			if got := testing.AllocsPerRun(50, func() { far.Join(g, 0); far.Leave(g, 0) }); got != 0 {
				t.Errorf("%s, %d hops to the root: %v allocations per join+leave, want 0", backend, transit+1, got)
			}
			far.Join(g, 0)
			member := far.net.Domain(wire.DomainID(transit + 3))
			member.Send(g, member.HostAddr(0), "x", 0)
			if len(far.Received()) == 0 {
				t.Fatalf("%s: a join from the far end receives nothing; the budget would be vacuous", backend)
			}
			far.Leave(g, 0)

			// churnGroups groups standing at the far end, and as many more
			// with a member behind the root that the far end joins and leaves.
			root := far.net.Domain(wire.DomainID(transit + 2))
			churn := make([]addr.Addr, churnGroups)
			for i := 0; i < 2*churnGroups; i++ {
				lease, err := root.NewGroup(24 * time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				if i < churnGroups {
					far.Join(lease.Addr, 0)
				} else {
					churn[i-churnGroups] = lease.Addr
					member.Join(lease.Addr, 0)
				}
			}
			bgmpState := func() int { n, _ := far.net.Router(1).BGMP().StateSize(); return n }
			standing := bgmpState()
			peak := 0
			got := testing.AllocsPerRun(20, func() {
				for _, g := range churn {
					far.Join(g, 0)
				}
				peak = bgmpState()
				for _, g := range churn {
					far.Leave(g, 0)
				}
			})
			if got != 0 {
				t.Errorf("%s, %d hops to the root: %v allocations per %d joins and their leaves, want 0",
					backend, transit+1, got, churnGroups)
			}
			if backend == dataplane.SharedTreeName && peak-standing != churnGroups {
				t.Fatalf("%s: the far end's router holds %d entries with the churned groups joined and %d without, want %d more",
					backend, peak, standing, churnGroups)
			}
		}
	}
}

// TestObservedChurnRecyclesEventArrays is TestJoinAllocBudget's far-end
// join and leave on a network with an Observer: each router the join or
// prune crosses queues its events in an array under its lock, emits them
// once the lock is released, and then takes the array back for its next
// operation. So an observed join+leave allocates nothing either, on every
// backend. When each operation dropped its array after emitting, a pair 5
// hops from the root cost 12 allocations on the shared tree. The overlays
// relay a MemberReport without an event, so for them the test holds only
// that an observer adds nothing.
func TestObservedChurnRecyclesEventArrays(t *testing.T) {
	const transit = 4
	for _, backend := range dataplane.Names() {
		ob := obs.NewObserver()
		far, g := chainNet(t, transit, 1, 0, netOpts{backend: backend, ob: ob})
		before := ob.Snapshot()
		got := testing.AllocsPerRun(50, func() { far.Join(g, 0); far.Leave(g, 0) })
		if backend == dataplane.SharedTreeName && ob.Snapshot().Diff(before).Total(obs.BGMPJoin) == 0 {
			t.Fatalf("%s: the observer saw no join; the budget would be vacuous", backend)
		}
		if got != 0 {
			t.Errorf("%s, %d hops to the root, observed: %v allocations per join+leave, want 0", backend, transit+1, got)
		}
	}
}

// TestChurnReplayAllocatesNothing replays the real-stack benchmark's churn
// on an asWorld of 60 domains, every one of its eight groups standing with
// three members: a pass joins ten more domains to each group, in one
// order, and then has them leave, in another. Replayed a second time, the
// pass builds every entry, children array, member set, message and table
// slot from what the first gave back, and allocates exactly nothing: on
// every backend, and for each of five pass orders, because what it holds is
// bounded by the most ever held live, and not by the order the state was
// given back in or by a per-map hash seed. The churn leaves every router
// holding what it held before. Before the state was recycled this way, the
// second replay allocated tens of times on the shared tree: bounded free
// lists, child arrays carried by the entry they served, and Go maps that
// double under insert and delete churn.
func TestChurnReplayAllocatesNothing(t *testing.T) {
	const n, extra, orders = 60, 10, 5
	type op struct {
		d *Domain
		g addr.Addr
	}
	for _, backend := range dataplane.Names() {
		w := newASWorld(t, n, 40, 1998, backend, nil)
		r := rand.New(rand.NewSource(1998))
		var churn []op
		for _, wg := range w.groups {
			joiners := 0
			for _, v := range r.Perm(n) {
				id := wire.DomainID(v + 1)
				if joiners < extra && !slices.Contains(wg.members, id) {
					churn = append(churn, op{w.net.Domain(id), wg.addr})
					joiners++
				}
			}
		}
		state := func() (s []int) {
			for _, d := range w.net.Domains() {
				for _, r := range d.Routers() {
					groups, sources := r.BGMP().StateSize()
					s = append(s, groups, sources)
				}
			}
			return s
		}
		before := state()
		for order := int64(1); order <= orders; order++ {
			o := rand.New(rand.NewSource(order))
			joins, leaves := slices.Clone(churn), slices.Clone(churn)
			o.Shuffle(len(joins), func(i, j int) { joins[i], joins[j] = joins[j], joins[i] })
			o.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
			grew, first := false, true
			pass := func() {
				for _, q := range joins {
					q.d.Join(q.g, 0)
				}
				if first { // state() allocates: read it on the replay not counted
					grew, first = !slices.Equal(state(), before), false
				}
				for _, q := range leaves {
					q.d.Leave(q.g, 0)
				}
			}
			pass()
			if got := mallocs(pass); got != 0 {
				t.Errorf("%s, order %d: the second replay of a pass of %d joins and their leaves allocated %d times, want 0",
					backend, order, len(churn), got)
			}
			if backend == dataplane.SharedTreeName && !grew {
				t.Fatalf("%s, order %d: the joins built no tree state; the replay would be vacuous", backend, order)
			}
			if after := state(); !slices.Equal(after, before) {
				t.Fatalf("%s, order %d: routers' (*,G)/(S,G) counts %v after the pass, %v before", backend, order, after, before)
			}
		}
	}
}

// flap takes the ring link between routers a and a+1 down and up again.
func flap(t testing.TB, net *Network, a int) {
	if err := net.Unlink(wire.RouterID(a), wire.RouterID(a+1)); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(wire.RouterID(a), wire.RouterID(a+1)); err != nil {
		t.Fatal(err)
	}
}

// TestBIERFollowsUnicastAcrossFlap cuts and restores the chord a group's
// copies cross, on a ring with members on both sides of it: before, between
// and after, every member domain receives exactly one copy of a send and
// nobody else any. BIER's next hops live in a table derived from the
// unicast RIB, so the middle send holds only if the table follows the RIB's
// best changes; the other two backends run the same script to the same
// member sets.
func TestBIERFollowsUnicastAcrossFlap(t *testing.T) {
	const n, chord = 12, 4 // chords 1–5, 5–9, 9–1; domain 1 is the root
	members := []wire.DomainID{3, 5, 6, 8, 11}
	for _, backend := range dataplane.Names() {
		net := ringNet(t, n, chord, netOpts{backend: backend})
		lease, err := net.Domain(1).NewGroup(24 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			net.Domain(m).Join(lease.Addr, 0)
		}
		send := func(when string) {
			t.Helper()
			t.Log(backend, when)
			assertExactlyOnce(t, net, lease.Addr, members, 10)
		}
		send("before the cut")
		if err := net.Unlink(1, 5); err != nil {
			t.Fatal(err)
		}
		send("chord 1–5 down")
		if err := net.Link(1, 5); err != nil {
			t.Fatal(err)
		}
		send("chord 1–5 back")
	}
}

// TestFlapAllocBudget pins what a link going down and coming back may
// allocate across the whole stack, as
//
//	perUpdate × updates + perItem × route items
//
// where an update is one BGP UPDATE a speaker sends and a route item one
// route announced or withdrawn to one neighbour, both counted off the
// observer of an identical world (updateCounter). Per update come the
// sender's update and its lists (the receiver's are the network's one
// reused update), the receiver's batch, notes and output. An item that is
// a route costs its decoded AS path, which the receiver keeps as its own;
// one that changes the receiver's best adds at most a record for a prefix
// not met before and one domain-prepended path shared by every neighbour
// it goes on to. BGMP's joins and prunes come off free lists and get no
// term. A member in domain 4 hangs a tree on the flapped link on the 16-
// and 18-router rings, so the flap runs a failover and its repair as well.
// The tree gets no term either: the ring with the member must allocate no
// more than the same ring without it. Repair sorts its keys in scratch
// kept on the component and a border's interior join reuses a list, so
// both rings read 334, 443 and 569 allocations against budgets of 350, 474
// and 606. Sorting with sort.Slice, a fresh key slice per repair pass or a
// map per joined group each put the member's ring 2 to 4 above the bare
// one. Decoding each delivered message that has nothing folded into it
// into a fresh one instead of the network's inbox reads 396, 531 and 687
// and fails on each; the budget that this one replaced, 4 × items + 50,
// passed a fresh decode on 14 and 16 routers, its slack growing with the
// ring. With a prefix's state in five maps and a
// Clone plus a prepending append per route per neighbour, a flap on a
// 12-router ring, whose routes then went into the M-RIB as well, cost 11.3
// allocations per item.
func TestFlapAllocBudget(t *testing.T) {
	const chord, link, perUpdate, perItem = 4, 3, 4, 2
	failovers := uint64(0)
	for _, n := range []int{14, 16, 18} {
		t.Run(fmt.Sprintf("%d-routers", n), func(t *testing.T) {
			ring := func(ob *obs.Observer, member bool) *Network {
				net := ringNet(t, n, chord, netOpts{backend: dataplane.SharedTreeName, ob: ob})
				if member {
					lease, err := net.Domain(1).NewGroup(24 * time.Hour)
					if err != nil {
						t.Fatal(err)
					}
					net.Domain(4).Join(lease.Addr, 0)
				}
				flap(t, net, link) // the first flap settles map sizes; later ones are counted
				return net
			}
			ob := obs.NewObserver()
			counted := ring(ob, true)
			updates := countUpdates(ob)
			before := ob.Snapshot()
			flap(t, counted, link)
			d := ob.Snapshot().Diff(before)
			items := int(d.Total(obs.BGPAnnounce) + d.Total(obs.BGPWithdraw))
			failovers += d.Total(obs.BGMPFailover)
			msgs := updates()
			if items < 5*n {
				t.Fatalf("a flap moved %d route items on a %d-router ring; the budget would be vacuous", items, n)
			}

			net, bare := ring(nil, true), ring(nil, false)
			got := int(testing.AllocsPerRun(5, func() { flap(t, net, link) }))
			if budget := perUpdate*msgs + perItem*items; got > budget {
				t.Errorf("%d allocations per flap of %d updates and %d route items, budget %d×%d + %d×%d = %d",
					got, msgs, items, perUpdate, msgs, perItem, items, budget)
			}
			if alone := int(testing.AllocsPerRun(5, func() { flap(t, bare, link) })); got > alone {
				t.Errorf("%d allocations per flap with a member's tree on the link, %d without: repairing the tree allocated",
					got, alone)
			}
		})
	}
	if failovers == 0 {
		t.Error("no flap failed a tree over; the failover path went unmeasured")
	}
}

// countUpdates starts counting the BGP updates sent on ob's network and
// returns the count so far, stopping it. bgp.Speaker emits, for each update
// it sends, one bgp.announce per route and then one bgp.withdraw per
// withdrawn prefix, back to back; the reselection that sent it emits its
// bgp.best_change events before the speaker's next sends. So an update is a
// run of those events of one router, peer and table that no other event
// breaks and in which no announce follows a withdraw.
func countUpdates(ob *obs.Observer) func() int {
	n, last := 0, obs.Event{}
	stop := ob.Subscribe(func(e obs.Event) {
		if e.Kind == obs.BGPAnnounce || e.Kind == obs.BGPWithdraw {
			same := e.Router == last.Router && e.Peer == last.Peer && e.Table == last.Table
			if !same || !(last.Kind == e.Kind || last.Kind == obs.BGPAnnounce) {
				n++
			}
		}
		last = e
	})
	return func() int {
		stop()
		return n
	}
}

// TestSetupRouteItemBudget bounds the route items — one route announced or
// withdrawn to one neighbour, counted off the observer — that building an
// asWorld moves, as
//
//	perEntry × RIB entries at convergence
//
// where an entry is one router's selected route for one prefix in one
// table. Every entry but an origination is announced at least once, and a
// link coming up sends each end the other's whole table. Anything past that
// is a route some router announced and then replaced before the build was
// done. Delivering each update by nested call, a link's first update ran to
// the end of the graph before its sender's next one left: routers learned
// long paths first and replaced them, 4.4 items per entry here (5.4 and 20
// on the benchmark's tree-dense and mesh-sparse). Breadth-first from one
// queue, a second update folded into one still waiting on its session, the
// build takes 3.0 (2.3 and 7.5 there).
func TestSetupRouteItemBudget(t *testing.T) {
	ob := obs.NewObserver()
	w := newASWorld(t, 80, 40, 1998, dataplane.SharedTreeName, ob)
	d := ob.Snapshot()
	items := d.Total(obs.BGPAnnounce) + d.Total(obs.BGPWithdraw)
	entries := ribEntries(w.net)
	const perEntry = 3.5
	if budget := perEntry * float64(entries); float64(items) > budget {
		t.Errorf("set-up moved %d route items for %d RIB entries (%.2f each), budget %.1f × %d = %.0f",
			items, entries, float64(items)/float64(entries), perEntry, entries, budget)
	}
}

// TestRIBHeapBudget bounds the live heap TestSetupRouteItemBudget's asWorld
// holds once built, per RIB entry. Nearly all of it is BGP state, which
// grows about as the square of the domains: one record per prefix per
// table per router and the routes learned from each peer. With the
// selection kept twice, in the record and in a read index, and every
// learned route carrying its own copy of the record's prefix, a record took
// 160 bytes, a learned route 64 and an entry about 697; kept once, they
// take 80, 40 and about 543. Keying the maps by one word instead of a
// Prefix, dropping the prefix from the selection (64 bytes to 48) and
// building each domain's two rand sources on first draw took an entry to
// about 433. Originating each host prefix into the unicast table only, not
// into the M-RIB as well, halves the entries and not the per-domain state
// they share: 466 bytes each. Naming the selection inside its record (an
// 8-byte pick in place of the 16-byte prefix, which the record keeps as
// its key) instead of copying it by value into a second map takes an
// entry to 362 (369 under -race). Putting the by-value map back beside
// the picks reads 468: the budget sits between. No world here is
// incongruent, so the built one must hold no M-RIB entry: a copy of the
// unicast table there is what was halved away.
//
// The test measures in a process of its own: an earlier test's world can
// outlive that test by a collection or two, and the heap it frees during
// the build would go unmeasured.
func TestRIBHeapBudget(t *testing.T) {
	const child = "MASCBGMP_RIB_HEAP_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRIBHeapBudget$")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v:\n%s", err, out)
		}
		return
	}
	before := liveHeap()
	w := newASWorld(t, 80, 40, 1998, dataplane.SharedTreeName, nil)
	grown := liveHeap() - before
	entries := ribEntries(w.net)
	for _, d := range w.net.Domains() {
		for _, r := range d.Routers() {
			if m := r.bgp.Table(wire.TableMRIB); len(m) > 0 {
				t.Fatalf("router %d holds %d M-RIB entries, the first %v; no world originates into the M-RIB", r.ID, len(m), m[0])
			}
		}
	}
	const perEntry = 375
	if got := float64(grown) / float64(entries); got > perEntry {
		t.Errorf("the built world holds %d live heap bytes for %d RIB entries (%.0f each), budget %d each",
			grown, entries, got, perEntry)
	}
}

// liveHeap returns the bytes of heap that survive a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ribEntries counts the selected routes of every router's three tables.
func ribEntries(net *Network) int {
	n := 0
	for _, d := range net.Domains() {
		for _, r := range d.Routers() {
			for t := range wire.NumTables {
				n += len(r.bgp.Table(wire.Table(t)))
			}
		}
	}
	return n
}

// BenchmarkLinkFlap times one link of a 48-router ring with chords going
// down and coming back: two session teardowns, the withdrawals and path
// hunting they set off, two full-table Syncs and the reconvergence.
func BenchmarkLinkFlap(b *testing.B) {
	net := ringNet(b, 48, 6, netOpts{backend: dataplane.SharedTreeName})
	flap(b, net, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flap(b, net, 5+i%7)
	}
}

// BenchmarkJoinLeave times a host join and the leave that undoes it in the
// domain farthest from the first group's root on TestSetupRouteItemBudget's
// asWorld: a (*,G) entry built and torn down at each router until the join
// meets the group's tree, the G-RIB asked once per new entry.
func BenchmarkJoinLeave(b *testing.B) {
	w := newASWorld(b, 80, 40, 1998, dataplane.SharedTreeName, nil)
	wg := w.groups[0]
	dist, _ := w.graph.BFS(wg.root)
	far, farthest := 0, -1
	for v, k := range dist {
		if k > farthest && !slices.Contains(wg.members, wire.DomainID(v+1)) {
			far, farthest = v, k
		}
	}
	d := w.net.Domain(wire.DomainID(far + 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Join(wg.addr, 0)
		d.Leave(wg.addr, 0)
	}
}

// BenchmarkBuildWorld times building TestSetupRouteItemBudget's asWorld —
// 80 domains, 140 links brought up one at a time, four MASC claims, eight
// groups — and reports the route items one build moves and the live heap
// bytes per RIB entry it holds (TestRIBHeapBudget's figure), read off the
// clock.
func BenchmarkBuildWorld(b *testing.B) {
	b.ReportAllocs()
	var items, grown, entries uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		ob := obs.NewObserver()
		w := newASWorld(b, 80, 40, 1998, dataplane.SharedTreeName, ob)
		b.StopTimer()
		grown += liveHeap() - before
		entries += uint64(ribEntries(w.net))
		b.StartTimer()
		d := ob.Snapshot()
		items += d.Total(obs.BGPAnnounce) + d.Total(obs.BGPWithdraw)
	}
	b.ReportMetric(float64(items)/float64(b.N), "items/op")
	b.ReportMetric(float64(grown)/float64(entries), "B/entry")
}
