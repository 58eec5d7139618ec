package main

import (
	"fmt"
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/maas"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/migp/dvmrp"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/transport"
	"mascbgmp/internal/wire"
)

// Layer unit costs. The benchmark may not edit the program, so a layer is
// measured from outside: its public constructors and entry points are
// called in isolation, with stubs on every side, on inputs taken from the
// workload (its frames, group addresses, neighbour and child counts).

// looper runs the isolated loops: each accumulates at least target of
// measured time and gets a span.
type looper struct {
	tr     *tracer
	target time.Duration
}

// time calls body with growing n until it reports at least l.target of
// measured time, and returns nanoseconds per op. body times only the part
// it wants counted, so set-up and tear-down inside it stay out.
func (l looper) time(name string, body func(n int) time.Duration) float64 {
	defer l.tr.begin(name)()
	for n := 1; ; {
		d := body(n)
		if d >= l.target {
			return float64(d.Nanoseconds()) / float64(n)
		}
		next := n * 100
		if d > 0 {
			if est := int(1.2 * float64(n) * float64(l.target) / float64(d)); est < next {
				next = est
			}
		}
		n = max(next, n+1)
	}
}

// repeat times n calls of op.
func repeat(n int, op func(i int)) time.Duration {
	t := now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return since(t)
}

// layerInputs is what the isolated loops borrow from the workload.
type layerInputs struct {
	group, source         addr.Addr
	payload, largePayload []byte
	route                 wire.Route // a converged router's G-RIB route for group
	neighbours            int        // mean peerings per border router, rounded up
	children              int        // mean children per (*,G) entry, rounded up
	memberDomains         int
	leasesPerRoot         int
}

func inputsFrom(st *stack, sc *script) layerInputs {
	s := st.w.spec
	in := layerInputs{
		group: st.groups[0], source: st.hosts[0],
		payload: []byte(sc.payload), largePayload: []byte(sc.largePayload),
		neighbours:    max(2, (2*st.w.graph.NumLinks()+s.domains-1)/s.domains),
		children:      2,
		memberDomains: s.members,
		leasesPerRoot: (s.groups + numRoots - 1) / numRoots,
	}
	// A route as a transit router holds it: learned, with a real AS path.
	for _, r := range st.routers {
		if e, ok := r.BGP().Lookup(wire.TableGRIB, in.group); ok && len(e.Route.ASPath) >= len(in.route.ASPath) {
			in.route = e.Route
		}
	}
	entries, kids := 0, 0
	for _, r := range st.routers {
		for _, g := range st.groups {
			if _, ch, ok := r.BGMP().GroupEntry(g); ok {
				entries++
				kids += len(ch)
			}
		}
	}
	if entries > 0 {
		in.children = max(1, (kids+entries-1)/entries)
	}
	return in
}

type stubMIGP struct{}

func (stubMIGP) JoinGroup(addr.Addr)                       {}
func (stubMIGP) LeaveGroup(addr.Addr)                      {}
func (stubMIGP) RelayToBorder(wire.RouterID, wire.Message) {}
func (stubMIGP) Inject(*wire.Data) bool                    { return true }
func (stubMIGP) ExpectedEntry(addr.Addr) wire.RouterID     { return 0 }

type stubBorder struct{}

func (stubBorder) LocalJoin(addr.Addr)                          {}
func (stubBorder) LocalLeave(addr.Addr)                         {}
func (stubBorder) Deliver(bgmp.Target, *wire.Data)              {}
func (stubBorder) HandleFromBorder(wire.RouterID, wire.Message) {}
func (stubBorder) HasForwardingState(addr.Addr) bool            { return false }

// layerCosts measures every unit cost and returns them by metric name. The
// first error any loop hits is returned; its metrics are then meaningless.
func layerCosts(tr *tracer, st *stack, in layerInputs, target time.Duration) (map[string]float64, error) {
	defer tr.begin("layers")()
	loop := looper{tr, target}
	out := map[string]float64{}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// ---- wire: one Encode+Decode round trip, as directSender does per hop.
	data := func(payload []byte) *wire.Data {
		return &wire.Data{Group: in.group, Source: in.source, TTL: 32, Payload: payload}
	}
	codec := func(m wire.Message) func(int) time.Duration {
		return func(n int) time.Duration {
			return repeat(n, func(int) {
				_, err := wire.Decode(wire.Encode(m))
				note(err)
			})
		}
	}
	out["wire.data64_codec_ns"] = loop.time("wire.data64_codec", codec(data(in.payload)))
	out["wire.data1400_codec_ns"] = loop.time("wire.data1400_codec", codec(data(in.largePayload)))
	out["wire.join_codec_ns"] = loop.time("wire.join_codec", codec(&wire.GroupJoin{Group: in.group}))
	out["wire.update_codec_ns"] = loop.time("wire.update_codec",
		codec(&wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{in.route}}))
	out["wire.report_codec_ns"] = loop.time("wire.report_codec",
		codec(&wire.MemberReport{Group: in.group, Domain: 7}))
	{
		const n = 10000
		m0, _ := readMem()
		codec(data(in.payload))(n)
		m1, _ := readMem()
		out["wire.data64_codec_allocs"] = float64(m1-m0) / n
	}

	// ---- transport: a frame through a framed in-memory pipe, reader on
	// its own goroutine. Synchronous networks bypass this layer.
	{
		a, b := transport.Pipe()
		msg := data(in.payload)
		out["transport.pipe_msg_ns"] = loop.time("transport.pipe_msg", func(n int) time.Duration {
			done := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if _, err := b.Read(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			t := now()
			for i := 0; i < n; i++ {
				note(a.Write(msg))
			}
			note(<-done)
			return since(t)
		})
		note(a.Close())
		note(b.Close())
	}

	// ---- bgp: longest-match lookups on the converged routers, and the
	// decision process on a standalone speaker with the workload's
	// neighbour count replaying announce+withdraw of one prefix.
	out["bgp.lookup_ns"] = loop.time("bgp.lookup", func(n int) time.Duration {
		return repeat(n, func(i int) {
			st.routers[i%len(st.routers)].BGP().Lookup(wire.TableGRIB, st.groups[i%len(st.groups)])
		})
	})
	// The interior RPF check resolves a packet's source in the M-RIB, which
	// holds one prefix per domain — far more than the G-RIB's one per root.
	out["bgp.rpf_lookup_ns"] = loop.time("bgp.rpf_lookup", func(n int) time.Duration {
		return repeat(n, func(i int) {
			st.routers[i%len(st.routers)].BGP().Lookup(wire.TableMRIB, st.hosts[i*7%len(st.hosts)])
		})
	})
	{
		sp := bgp.New(bgp.Config{Router: 1, Domain: 1, AggregateCovered: true,
			Send: func(wire.RouterID, *wire.Update) {}})
		for k := 0; k < in.neighbours; k++ {
			sp.AddNeighbor(bgp.Neighbor{Router: wire.RouterID(10 + k), Domain: wire.DomainID(10 + k)})
		}
		for root := 0; root < numRoots; root++ {
			p := addr.Prefix{Base: addr.MakeAddr(224, byte(16*root), 0, 0), Len: 20}
			for k := 0; k < in.neighbours; k++ {
				path := []wire.DomainID{wire.DomainID(10 + k)}
				for h := 0; h < (k+root)%4; h++ {
					path = append(path, wire.DomainID(100+h))
				}
				path = append(path, wire.DomainID(200+root))
				sp.HandleUpdate(wire.RouterID(10+k), &wire.Update{Table: wire.TableGRIB,
					Routes: []wire.Route{{Prefix: p, ASPath: path, Origin: wire.DomainID(200 + root)}}})
			}
		}
		flapped := addr.Prefix{Base: addr.MakeAddr(239, 1, 0, 0), Len: 20}
		up := &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
			Prefix: flapped, ASPath: []wire.DomainID{10, 300}, Origin: 300}}}
		down := &wire.Update{Table: wire.TableGRIB, Withdrawn: []addr.Prefix{flapped}}
		out["bgp.update_ns"] = loop.time("bgp.update", func(n int) time.Duration {
			return repeat(n, func(int) {
				sp.HandleUpdate(10, up)
				sp.HandleUpdate(10, down)
			})
		}) / 2
	}

	// ---- masc: numRoots siblings claim at once and wait out the period.
	out["masc.claim_round_us"] = loop.time("masc.claim_round", func(n int) time.Duration {
		return repeat(n, func(int) { note(claimRound()) })
	}) / 1e3

	// ---- maas: lease+release on a /20 already holding the root's groups.
	{
		sim := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
		srv, err := maas.NewServer(maas.Config{Clock: sim, Rand: rand.New(rand.NewSource(worldSeed))})
		note(err)
		if err == nil {
			srv.AddRange(addr.Prefix{Base: addr.MakeAddr(224, 0, 0, 0), Len: 20}, sim.Now().Add(90*24*time.Hour))
			for i := 0; i < in.leasesPerRoot; i++ {
				_, err := srv.Lease(24 * time.Hour)
				note(err)
			}
			out["maas.lease_ns"] = loop.time("maas.lease", func(n int) time.Duration {
				return repeat(n, func(int) {
					l, err := srv.Lease(24 * time.Hour)
					note(err)
					note(srv.Release(l.Addr))
				})
			})
		}
	}

	// ---- migp: a one-node DVMRP fabric with a stub border, as every
	// benchmark domain has.
	{
		fab := migp.NewFabric(migp.FabricConfig{Domain: 1, Graph: topology.New(1), Protocol: dvmrp.New(),
			BestExit: func(addr.Addr) wire.RouterID { return 1 }})
		fab.AttachBorder(1, 0)
		fab.SetComponent(1, stubBorder{})
		out["migp.hostjoin_ns"] = loop.time("migp.hostjoin", func(n int) time.Duration {
			return repeat(n, func(int) {
				fab.HostJoin(in.group, 0)
				fab.HostLeave(in.group, 0)
			})
		}) / 2
		fab.HostJoin(in.group, 0)
		pkt := data(in.payload)
		out["migp.deliver_ns"] = loop.time("migp.deliver", func(n int) time.Duration {
			return repeat(n, func(int) { fab.SendFromHost(0, pkt) })
		})
	}

	// ---- bgmp: a standalone component between stub peers. Router 2 is
	// the next hop toward the root; children are routers 100, 101, ...
	upstream := func(addr.Addr) (bgp.Entry, bool) {
		return bgp.Entry{Route: wire.Route{Origin: 99}, NextHop: 2}, true
	}
	component := func(lookupGroup func(addr.Addr) (bgp.Entry, bool)) *bgmp.Component {
		return bgmp.New(bgmp.Config{Router: 1, Domain: 1,
			LookupGroup: lookupGroup,
			Internal:    func(wire.RouterID) bool { return false },
			SendPeer:    func(wire.RouterID, wire.Message) {},
			MIGP:        stubMIGP{}})
	}
	transit := func() *bgmp.Component { return component(upstream) }
	groupAt := func(i int) addr.Addr { return in.group + addr.Addr(i) }
	out["bgmp.join_ns"] = loop.time("bgmp.join", func(n int) time.Duration {
		c := transit()
		return repeat(n, func(i int) { c.HandlePeer(100, &wire.GroupJoin{Group: groupAt(i)}) })
	})
	out["bgmp.prune_ns"] = loop.time("bgmp.prune", func(n int) time.Duration {
		c := transit()
		for i := 0; i < n; i++ {
			c.HandlePeer(100, &wire.GroupJoin{Group: groupAt(i)})
		}
		return repeat(n, func(i int) { c.HandlePeer(100, &wire.GroupPrune{Group: groupAt(i)}) })
	})
	{
		c := transit()
		for k := 0; k < in.children; k++ {
			c.HandlePeer(wire.RouterID(100+k), &wire.GroupJoin{Group: in.group})
		}
		pkt := data(in.payload)
		out["bgmp.forward_ns"] = loop.time("bgmp.forward", func(n int) time.Duration {
			return repeat(n, func(int) { c.Deliver(bgmp.PeerTarget(2), pkt) })
		})
	}

	// ---- dataplane: each backend's root fan-out of one interior-origin
	// packet to memberDomains member domains, and one MemberReport relayed
	// by a transit router.
	root := func(addr.Addr) (bgp.Entry, bool) {
		return bgp.Entry{Route: wire.Route{Origin: 1}, NextHop: 1, Local: true}, true
	}
	anchor := func(d wire.DomainID) (addr.Addr, bool) { return addr.MakeAddr(10, byte(d>>8), byte(d), 0), true }
	overlayCfg := func(lookupGroup func(addr.Addr) (bgp.Entry, bool)) dataplane.Config {
		store := dataplane.NewStore()
		for m := 0; m < in.memberDomains; m++ {
			store.Add(in.group, wire.DomainID(2+m))
		}
		return dataplane.Config{Router: 1, Domain: 1,
			LookupGroup: lookupGroup,
			LookupUnicast: func(a addr.Addr) (bgp.Entry, bool) {
				d := wire.DomainID(a >> 8 & 0xffff)
				return bgp.Entry{Route: wire.Route{Origin: d},
					NextHop: wire.RouterID(100 + int(d)%in.neighbours)}, true
			},
			Internal:     func(wire.RouterID) bool { return false },
			SendPeer:     func(wire.RouterID, wire.Message) {},
			MIGP:         stubMIGP{},
			DomainAddr:   anchor,
			SourceDomain: func(addr.Addr) (wire.DomainID, bool) { return 1, true },
			Store:        store}
	}
	fanOut := func(name string, b dataplane.Backend) {
		pkt := data(in.payload)
		out["dataplane."+name+"_deliver_ns"] = loop.time("dataplane."+name+"_deliver", func(n int) time.Duration {
			return repeat(n, func(int) { b.Deliver(bgmp.MIGPTarget, pkt) })
		})
	}
	{
		c := component(root)
		for m := 0; m < in.memberDomains; m++ {
			c.HandlePeer(wire.RouterID(100+m), &wire.GroupJoin{Group: in.group})
		}
		fanOut("shared", dataplane.NewSharedTree(c))
	}
	fanOut("bier", dataplane.NewBIER(overlayCfg(root)))
	fanOut("encap", dataplane.NewMapEncap(overlayCfg(root)))
	{
		relay := dataplane.NewBIER(overlayCfg(upstream))
		rep := &wire.MemberReport{Group: in.group, Domain: 7}
		out["dataplane.report_ns"] = loop.time("dataplane.report", func(n int) time.Duration {
			return repeat(n, func(int) { relay.HandleControl(bgmp.PeerTarget(100), rep) })
		})
	}
	return out, firstErr
}

// claimRound builds numRoots top-level MASC siblings on a fresh simulated
// clock, has each claim a /20 and runs the 48-hour waiting period out.
func claimRound() error {
	sim := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	nodes := map[wire.DomainID]*masc.Node{}
	for d := wire.DomainID(1); d <= numRoots; d++ {
		d := d
		nodes[d] = masc.NewNode(masc.NodeConfig{Domain: d, Clock: sim,
			Rand: rand.New(rand.NewSource(worldSeed + int64(d))), WaitPeriod: 48 * time.Hour, TopLevel: true,
			Send: func(to wire.DomainID, msg wire.Message) { nodes[to].HandleMessage(d, msg) }})
	}
	for a := wire.DomainID(1); a <= numRoots; a++ {
		for b := wire.DomainID(1); b <= numRoots; b++ {
			if a != b {
				nodes[a].AddSibling(b)
			}
		}
	}
	for d := wire.DomainID(1); d <= numRoots; d++ {
		if !nodes[d].RequestSpace(1<<12, 90*24*time.Hour) {
			return fmt.Errorf("masc claim round: domain %d selected no claim", d)
		}
	}
	sim.RunFor(49 * time.Hour)
	for d := wire.DomainID(1); d <= numRoots; d++ {
		if len(nodes[d].Holdings()) == 0 {
			return fmt.Errorf("masc claim round: domain %d won nothing", d)
		}
	}
	return nil
}
