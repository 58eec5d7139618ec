package main

import (
	"fmt"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/core"
	"mascbgmp/internal/migp/dvmrp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// stack is the program under test: a real core.Network built from a
// world, driven only through Domain.Join/Leave/Send and Network.Unlink/
// Link. Domain index i is domain and router ID i+1.
type stack struct {
	w       *world
	net     *core.Network
	ob      *obs.Observer // nil in untraced runs
	doms    []*core.Domain
	routers []*core.Router
	hosts   []addr.Addr // one source address per domain
	groups  []addr.Addr // leased group address per world group

	// baseline is the forwarding and membership state after set-up; churn
	// and flaps must return to it.
	baseline state
}

// state sums what the routers hold.
type state struct {
	bgmpEntries, overlayEntries, ribEntries int
}

func domainID(i int) wire.DomainID { return wire.DomainID(i + 1) }
func routerID(i int) wire.RouterID { return wire.RouterID(i + 1) }

// buildStack runs the whole set-up: domains, links (BGP converges as they
// come up), MASC claims and the waiting period, leases, initial joins.
func buildStack(w *world, ob *obs.Observer) (*stack, error) {
	s := w.spec
	sim := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	net, err := core.NewNetwork(core.Config{
		Clock: sim, Seed: worldSeed, Synchronous: true, DataPlane: s.dataPlane, Observer: ob,
	})
	if err != nil {
		return nil, err
	}
	st := &stack{w: w, net: net, ob: ob}
	isRoot := map[int]bool{}
	for _, r := range w.roots {
		isRoot[r] = true
	}
	for i := 0; i < s.domains; i++ {
		d, err := net.AddDomain(core.DomainConfig{
			ID:         domainID(i),
			Routers:    []wire.RouterID{routerID(i)},
			Protocol:   dvmrp.New(),
			TopLevel:   isRoot[i],
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte((i+1)>>8), byte(i+1), 0), Len: 24},
		})
		if err != nil {
			return nil, err
		}
		st.doms = append(st.doms, d)
		st.routers = append(st.routers, d.Routers()[0])
		st.hosts = append(st.hosts, d.HostAddr(0))
	}
	for a := 0; a < s.domains; a++ {
		for _, e := range w.graph.Neighbors(topology.DomainID(a)) {
			if int(e.To) > a {
				if err := net.Link(routerID(a), routerID(int(e.To))); err != nil {
					return nil, err
				}
			}
		}
	}

	for i, a := range w.roots {
		for _, b := range w.roots[i+1:] {
			if err := net.MASCPeerSiblings(domainID(a), domainID(b)); err != nil {
				return nil, err
			}
		}
	}
	const lifetime = 90 * 24 * time.Hour
	for _, r := range w.roots {
		if !st.doms[r].MASC().RequestSpace(1<<12, lifetime) {
			return nil, fmt.Errorf("domain %d: no MASC claim could be selected", r)
		}
	}
	sim.RunFor(49 * time.Hour)
	for _, r := range w.roots {
		if len(st.doms[r].MASC().Holdings()) == 0 {
			return nil, fmt.Errorf("domain %d won no MASC range in 49 h", r)
		}
	}

	for g := 0; g < s.groups; g++ {
		lease, err := st.doms[w.roots[g%numRoots]].NewGroup(lifetime / 3)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		st.groups = append(st.groups, lease.Addr)
		for _, m := range w.members[g] {
			st.doms[m].Join(lease.Addr, 0)
		}
	}
	st.baseline = st.state()
	return st, nil
}

func (st *stack) state() state {
	var out state
	out.bgmpEntries, out.overlayEntries = st.membershipState()
	for _, r := range st.routers {
		for _, t := range []wire.Table{wire.TableUnicast, wire.TableMRIB, wire.TableGRIB} {
			out.ribEntries += len(r.BGP().Table(t))
		}
	}
	return out
}

// membershipState is state() without the RIB walk: cheap enough to check
// after every churn pass.
func (st *stack) membershipState() (bgmpEntries, overlayEntries int) {
	for _, r := range st.routers {
		ds := r.DataPlane().Stats()
		bgmpEntries += ds.GroupEntries
		overlayEntries += ds.OverlayEntries
	}
	return
}

func (st *stack) send(p pair, payload string) {
	st.doms[p.domain].Send(st.groups[p.group], st.hosts[p.domain], payload, 0)
}

func (st *stack) join(p pair)  { st.doms[p.domain].Join(st.groups[p.group], 0) }
func (st *stack) leave(p pair) { st.doms[p.domain].Leave(st.groups[p.group], 0) }

func (st *stack) flap(l link) error {
	if err := st.net.Unlink(routerID(l.a), routerID(l.b)); err != nil {
		return err
	}
	return st.net.Link(routerID(l.a), routerID(l.b))
}

func (st *stack) clearReceived() {
	for _, d := range st.doms {
		d.ClearReceived()
	}
}

// checkDeliveries compares every domain's delivery log with what the sends
// since the last clearReceived must have produced: one copy per packet per
// member domain. It returns the number of missing or surplus copies.
func (st *stack) checkDeliveries(sends []pair) (wrong int) {
	want := make([]int, len(st.doms))
	for _, p := range sends {
		for _, m := range st.w.members[p.group] {
			want[m]++
		}
	}
	for i, d := range st.doms {
		if diff := len(d.Received()) - want[i]; diff < 0 {
			wrong -= diff
		} else {
			wrong += diff
		}
	}
	return wrong
}

// counters is a reading of everything the stack counts on its own: the
// observer's event totals by name, and the sums of the public per-fabric
// and per-backend statistics.
type counters struct {
	events                        map[string]uint64
	injected, encaps, headerBytes uint64
}

func (st *stack) counters() counters {
	c := counters{events: st.ob.Snapshot().NameTotals()}
	for i, r := range st.routers {
		ds := r.DataPlane().Stats()
		c.encaps += ds.Encaps
		c.headerBytes += ds.HeaderBytes
		c.injected += uint64(st.doms[i].Fabric().Stats().Injected)
	}
	return c
}

func (c counters) sub(b counters) counters {
	out := counters{events: map[string]uint64{},
		injected: c.injected - b.injected, encaps: c.encaps - b.encaps, headerBytes: c.headerBytes - b.headerBytes}
	for k, v := range c.events {
		out.events[k] = v - b.events[k]
	}
	return out
}

func (c *counters) add(b counters) {
	if c.events == nil {
		c.events = map[string]uint64{}
	}
	for k, v := range b.events {
		c.events[k] += v
	}
	c.injected += b.injected
	c.encaps += b.encaps
	c.headerBytes += b.headerBytes
}

// gribHops walks from a domain's border router along G-RIB next hops
// toward g's root domain and returns the inter-domain hops taken; with
// stopOnTree the walk ends at the first router holding (*,G) state, which
// is how far an off-tree packet or a join travels.
func (st *stack) gribHops(domain int, g addr.Addr, stopOnTree bool) int {
	r := st.routers[domain]
	for hops := 0; hops < 64; hops++ {
		if stopOnTree && r.BGMP().HasGroupState(g) {
			return hops
		}
		e, ok := r.BGP().Lookup(wire.TableGRIB, g)
		if !ok || e.Local || e.Route.Origin == r.Domain().ID {
			return hops
		}
		if r = st.net.Router(e.NextHop); r == nil {
			return hops
		}
	}
	return 64
}
