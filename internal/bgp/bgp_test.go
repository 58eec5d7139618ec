package bgp

import (
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// net is a synchronous in-process BGP network: speakers deliver updates to
// each other through direct HandleUpdate calls. Because Speaker releases
// its lock before Send, recursive propagation terminates naturally.
type testNet struct {
	speakers map[wire.RouterID]*Speaker
}

func newTestNet() *testNet { return &testNet{speakers: map[wire.RouterID]*Speaker{}} }

func (tn *testNet) add(router wire.RouterID, domain wire.DomainID, opts ...func(*Config)) *Speaker {
	cfg := Config{
		Router:           router,
		Domain:           domain,
		AggregateCovered: true,
		Send: func(to wire.RouterID, u *wire.Update) {
			if peer, ok := tn.speakers[to]; ok {
				peer.HandleUpdate(router, u)
			}
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := New(cfg)
	tn.speakers[router] = s
	return s
}

// connect establishes a bidirectional peering: both sides register, then
// both run the initial route exchange.
func (tn *testNet) connect(a, b *Speaker, internal bool) {
	a.AddNeighbor(Neighbor{Router: b.Router(), Domain: b.Domain(), Internal: internal})
	b.AddNeighbor(Neighbor{Router: a.Router(), Domain: a.Domain(), Internal: internal})
	a.Sync(b.Router())
	b.Sync(a.Router())
}

func grib(s *Speaker) []Entry { return s.Table(wire.TableGRIB) }

func TestOriginateAndPropagate(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	tn.connect(a, b, false)

	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10})

	e, ok := b.Lookup(wire.TableGRIB, addr.MakeAddr(224, 0, 5, 5))
	if !ok {
		t.Fatal("B should have learned the group route")
	}
	if e.NextHop != 1 {
		t.Fatalf("next hop = %d, want 1", e.NextHop)
	}
	if len(e.Route.ASPath) != 1 || e.Route.ASPath[0] != 10 {
		t.Fatalf("AS path = %v, want [10]", e.Route.ASPath)
	}
	if e.Route.Origin != 10 {
		t.Fatalf("origin = %d", e.Route.Origin)
	}
	// The originator's own lookup resolves locally.
	ea, ok := a.Lookup(wire.TableGRIB, addr.MakeAddr(224, 0, 5, 5))
	if !ok || !ea.Local || ea.NextHop != 1 {
		t.Fatalf("A's own entry: %+v ok=%v", ea, ok)
	}
}

func TestLatecomerNeighborGetsTable(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, 10)
	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10})

	b := tn.add(2, 20)
	tn.connect(a, b, false) // peering established after origination
	if _, ok := b.LookupPrefix(wire.TableGRIB, p); !ok {
		t.Fatal("late neighbor should receive the existing table")
	}
}

func TestWithdrawPropagates(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	c := tn.add(3, 30)
	tn.connect(a, b, false)
	tn.connect(b, c, false)

	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10})
	if _, ok := c.LookupPrefix(wire.TableGRIB, p); !ok {
		t.Fatal("C should learn via B")
	}
	a.WithdrawLocal(wire.TableGRIB, p)
	if _, ok := c.LookupPrefix(wire.TableGRIB, p); ok {
		t.Fatal("withdraw should reach C")
	}
	if _, ok := b.LookupPrefix(wire.TableGRIB, p); ok {
		t.Fatal("withdraw should reach B")
	}
}

func TestASPathGrowsAndPreventsLoops(t *testing.T) {
	// Triangle 10-20-30: routes must not loop and paths must reflect
	// traversed domains.
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	c := tn.add(3, 30)
	tn.connect(a, b, false)
	tn.connect(b, c, false)
	tn.connect(c, a, false)

	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10})

	eb, _ := b.LookupPrefix(wire.TableGRIB, p)
	ec, _ := c.LookupPrefix(wire.TableGRIB, p)
	if len(eb.Route.ASPath) != 1 || eb.Route.ASPath[0] != 10 {
		t.Fatalf("B path %v", eb.Route.ASPath)
	}
	// C hears [10] from A directly and [20 10] via B: direct wins.
	if len(ec.Route.ASPath) != 1 || ec.NextHop != 1 {
		t.Fatalf("C path %v via %d, want direct [10] via 1", ec.Route.ASPath, ec.NextHop)
	}
}

func TestInternalMeshDistribution(t *testing.T) {
	// Paper §4.2: B1 advertises a group route to A3; A's other border
	// routers A1, A2, A4 learn it via the internal mesh with A3 as next
	// hop; they do not re-advertise internally learned routes to each
	// other (split horizon over the full mesh).
	tn := newTestNet()
	b1 := tn.add(31, 2) // domain B
	a1 := tn.add(11, 1)
	a2 := tn.add(12, 1)
	a3 := tn.add(13, 1)
	a4 := tn.add(14, 1)
	// Full internal mesh in A.
	as := []*Speaker{a1, a2, a3, a4}
	for i := 0; i < len(as); i++ {
		for j := i + 1; j < len(as); j++ {
			tn.connect(as[i], as[j], true)
		}
	}
	tn.connect(a3, b1, false)

	p := addr.MustParsePrefix("224.0.128.0/24")
	b1.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 2})

	e3, ok := a3.LookupPrefix(wire.TableGRIB, p)
	if !ok || e3.NextHop != 31 {
		t.Fatalf("A3 entry %+v ok=%v, want next hop B1(31)", e3, ok)
	}
	for _, r := range []*Speaker{a1, a2, a4} {
		e, ok := r.LookupPrefix(wire.TableGRIB, p)
		if !ok {
			t.Fatalf("router %d missing route", r.Router())
		}
		if e.NextHop != 13 {
			t.Fatalf("router %d next hop = %d, want A3(13)", r.Router(), e.NextHop)
		}
	}
}

func TestAggregationSuppressesCoveredChildRoute(t *testing.T) {
	// Paper §4.2/§4.3.2: A originates 224.0.0.0/16 which covers child B's
	// 224.0.128.0/24, so A must not propagate B's route to other domains;
	// packets toward the /24 in other domains follow the /16 to A, where
	// the more specific G-RIB entry directs them to B.
	tn := newTestNet()
	b1 := tn.add(31, 2)
	a3 := tn.add(13, 1)
	d1 := tn.add(41, 3)
	tn.connect(a3, b1, false)
	tn.connect(a3, d1, false)

	a3.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("224.0.0.0/16"), Origin: 1})
	b1.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("224.0.128.0/24"), Origin: 2})

	// D sees only the /16.
	entries := grib(d1)
	if len(entries) != 1 || entries[0].Route.Prefix.String() != "224.0.0.0/16" {
		t.Fatalf("D's G-RIB = %v, want only the /16", entries)
	}
	// A has both; longest match on a covered group address picks B.
	e, ok := a3.Lookup(wire.TableGRIB, addr.MakeAddr(224, 0, 128, 9))
	if !ok || e.NextHop != 31 {
		t.Fatalf("A3 LPM: %+v ok=%v, want next hop B1", e, ok)
	}
	// D's lookup of the same group resolves via the /16 toward A.
	ed, ok := d1.Lookup(wire.TableGRIB, addr.MakeAddr(224, 0, 128, 9))
	if !ok || ed.NextHop != 13 || ed.Route.Prefix.String() != "224.0.0.0/16" {
		t.Fatalf("D LPM: %+v ok=%v", ed, ok)
	}
}

func TestAggregationDisabledPropagatesChildRoute(t *testing.T) {
	tn := newTestNet()
	b1 := tn.add(31, 2, func(c *Config) { c.AggregateCovered = false })
	a3 := tn.add(13, 1, func(c *Config) { c.AggregateCovered = false })
	d1 := tn.add(41, 3, func(c *Config) { c.AggregateCovered = false })
	tn.connect(a3, b1, false)
	tn.connect(a3, d1, false)

	a3.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("224.0.0.0/16"), Origin: 1})
	b1.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("224.0.128.0/24"), Origin: 2})

	if len(grib(d1)) != 2 {
		t.Fatalf("without aggregation D should hold 2 routes, got %v", grib(d1))
	}
}

func TestCustomerExportPolicy(t *testing.T) {
	// Provider A (domain 1) has customer B (domain 2) and peers with
	// provider D (domain 3). A third domain E (domain 4) originates a
	// route that A learns from D; A must not re-export E's route to D
	// (no transit for non-customer routes) but must export B's.
	tn := newTestNet()
	policy := TableExportFilter(wire.TableGRIB, CustomerExportFilter(1, map[wire.DomainID]bool{2: true}))
	a := tn.add(13, 1, func(c *Config) { c.Export = policy })
	b := tn.add(31, 2)
	d := tn.add(41, 3)
	tn.connect(a, b, false)
	tn.connect(a, d, false)

	b.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("224.0.128.0/24"), Origin: 2})
	// Customer route reaches the peer.
	if _, ok := d.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("224.0.128.0/24")); !ok {
		t.Fatal("customer route should be exported to the peer")
	}
	// A route from the peer must not be exported back toward B? It CAN be:
	// customers receive full routes. Check the reverse direction: a route
	// originated by D reaches B (customers get everything).
	d.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("225.0.0.0/16"), Origin: 3})
	if _, ok := b.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("225.0.0.0/16")); !ok {
		t.Fatal("customers should receive peer routes")
	}
}

func TestNoTransitForPeerRoutes(t *testing.T) {
	// D1 -- A -- D2, both D's are peers (not customers) of A. A must not
	// give transit between them.
	tn := newTestNet()
	policy := TableExportFilter(wire.TableGRIB, CustomerExportFilter(1, nil))
	a := tn.add(13, 1, func(c *Config) { c.Export = policy })
	d1 := tn.add(41, 3)
	d2 := tn.add(51, 4)
	tn.connect(a, d1, false)
	tn.connect(a, d2, false)

	d1.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("226.0.0.0/16"), Origin: 3})
	if _, ok := a.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("226.0.0.0/16")); !ok {
		t.Fatal("A itself should learn the route")
	}
	if _, ok := d2.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("226.0.0.0/16")); ok {
		t.Fatal("A must not provide transit between peers")
	}
}

func TestRouteExpiry(t *testing.T) {
	clk := simclock.NewSim(time.Unix(1000, 0))
	tn := newTestNet()
	a := tn.add(1, 10, func(c *Config) { c.Clock = clk })
	b := tn.add(2, 20, func(c *Config) { c.Clock = clk })
	tn.connect(a, b, false)

	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10, ExpireUnix: 2000})
	if _, ok := b.LookupPrefix(wire.TableGRIB, p); !ok {
		t.Fatal("route should be live before expiry")
	}
	clk.RunFor(2000 * time.Second)
	if _, ok := b.LookupPrefix(wire.TableGRIB, p); ok {
		t.Fatal("expired route should not be returned")
	}
	if len(grib(b)) != 0 {
		t.Fatal("expired routes must not appear in snapshots")
	}
	a.Sweep()
	b.Sweep()
	if _, ok := a.LookupPrefix(wire.TableGRIB, p); ok {
		t.Fatal("sweep should remove the expired origination")
	}
}

func TestRemoveNeighborWithdrawsRoutes(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	c := tn.add(3, 30)
	tn.connect(a, b, false)
	tn.connect(b, c, false)
	a.Originate(wire.TableGRIB, wire.Route{Prefix: addr.MustParsePrefix("224.0.0.0/16"), Origin: 10})
	if _, ok := c.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("224.0.0.0/16")); !ok {
		t.Fatal("C should have the route")
	}
	// B loses its session with A.
	b.RemoveNeighbor(1, wire.TraceContext{})
	if _, ok := b.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("224.0.0.0/16")); ok {
		t.Fatal("B should drop routes from removed neighbor")
	}
	if _, ok := c.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("224.0.0.0/16")); ok {
		t.Fatal("C should receive the withdraw")
	}
}

func TestBestRouteSwitchover(t *testing.T) {
	// C hears the same prefix from A (path [10]) and from B (path [20 10]
	// after transit). When A's session drops, C fails over to B's path.
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	c := tn.add(3, 30)
	tn.connect(a, b, false)
	tn.connect(a, c, false)
	tn.connect(b, c, false)

	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10})
	e, _ := c.LookupPrefix(wire.TableGRIB, p)
	if e.NextHop != 1 {
		t.Fatalf("initial next hop = %d, want A", e.NextHop)
	}
	c.RemoveNeighbor(1, wire.TraceContext{})
	e, ok := c.LookupPrefix(wire.TableGRIB, p)
	if !ok {
		t.Fatal("C should fail over to B's path")
	}
	if e.NextHop != 2 || len(e.Route.ASPath) != 2 {
		t.Fatalf("failover entry %+v", e)
	}
}

func TestOnBestChangeNotification(t *testing.T) {
	type ev struct {
		p    addr.Prefix
		lost bool
	}
	var events []ev
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20, func(c *Config) {
		c.OnBestChange = func(table wire.Table, p addr.Prefix, lost bool, ctx wire.TraceContext) {
			if table == wire.TableGRIB {
				events = append(events, ev{p, lost})
			}
		}
	})
	tn.connect(a, b, false)
	p := addr.MustParsePrefix("224.0.0.0/16")
	a.Originate(wire.TableGRIB, wire.Route{Prefix: p, Origin: 10})
	a.WithdrawLocal(wire.TableGRIB, p)
	if len(events) != 2 || events[0].lost || !events[1].lost {
		t.Fatalf("events = %v", events)
	}
}

func TestTablesAreIndependent(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	tn.connect(a, b, false)
	p := addr.MustParsePrefix("10.0.0.0/8")
	a.Originate(wire.TableUnicast, wire.Route{Prefix: p, Origin: 10})
	if _, ok := b.LookupPrefix(wire.TableUnicast, p); !ok {
		t.Fatal("unicast route missing")
	}
	if _, ok := b.LookupPrefix(wire.TableGRIB, p); ok {
		t.Fatal("route leaked across tables")
	}
	if _, ok := b.LookupPrefix(wire.TableMRIB, p); ok {
		t.Fatal("route leaked across tables")
	}
}

func TestMRIBForIncongruentTopology(t *testing.T) {
	// Unicast next hop differs from multicast next hop: M-RIB lookups
	// must return the multicast-capable path.
	tn := newTestNet()
	a := tn.add(1, 10)
	b := tn.add(2, 20)
	c := tn.add(3, 30)
	tn.connect(a, b, false)
	tn.connect(a, c, false)
	p := addr.MustParsePrefix("10.0.0.0/8")
	b.Originate(wire.TableUnicast, wire.Route{Prefix: p, Origin: 20})
	c.Originate(wire.TableMRIB, wire.Route{Prefix: p, Origin: 30})
	eu, _ := a.Lookup(wire.TableUnicast, addr.MakeAddr(10, 1, 1, 1))
	em, _ := a.Lookup(wire.TableMRIB, addr.MakeAddr(10, 1, 1, 1))
	if eu.NextHop != 2 || em.NextHop != 3 {
		t.Fatalf("unicast via %d (want 2), mrib via %d (want 3)", eu.NextHop, em.NextHop)
	}
}

func TestLookupNoRoute(t *testing.T) {
	s := New(Config{Router: 1, Domain: 1})
	if _, ok := s.Lookup(wire.TableGRIB, addr.MakeAddr(224, 1, 1, 1)); ok {
		t.Fatal("empty table lookup should miss")
	}
	if _, ok := s.LookupPrefix(wire.TableGRIB, addr.MustParsePrefix("224.0.0.0/16")); ok {
		t.Fatal("empty table prefix lookup should miss")
	}
}

func TestUpdateFromUnknownPeerIgnored(t *testing.T) {
	s := New(Config{Router: 1, Domain: 1})
	s.HandleUpdate(99, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
		Prefix: addr.MustParsePrefix("224.0.0.0/16"), Origin: 9,
	}}})
	if len(grib(s)) != 0 {
		t.Fatal("updates from unknown peers must be ignored")
	}
}

// One well-formed frame from a configured neighbour used to crash the
// speaker: an Update for a table that does not exist reached a nil rib.
// The decoder refuses it now, and HandleUpdate ignores it for callers that
// hand it an Update directly.
func TestUpdateForUnknownTableIgnored(t *testing.T) {
	sent := 0
	s := New(Config{Router: 1, Domain: 1, Send: func(wire.RouterID, *wire.Update) { sent++ }})
	s.AddNeighbor(Neighbor{Router: 2, Domain: 2})
	s.AddNeighbor(Neighbor{Router: 3, Domain: 3})
	rt := wire.Route{Prefix: addr.MustParsePrefix("10.0.0.0/8"), ASPath: []wire.DomainID{2}, Origin: 2}
	for _, table := range []wire.Table{wire.Table(wire.NumTables), 9, 255} {
		u := &wire.Update{Table: table, Routes: []wire.Route{rt}, Withdrawn: []addr.Prefix{rt.Prefix}}
		if _, err := wire.Decode(wire.Encode(u)); err == nil {
			t.Errorf("table %d: the frame decodes; a neighbour can send it", table)
		}
		s.HandleUpdate(2, u)
	}
	for table := wire.Table(0); int(table) < wire.NumTables; table++ {
		if n := len(s.Table(table)); n != 0 {
			t.Errorf("table %v holds %d routes after updates for unknown tables", table, n)
		}
	}
	if sent != 0 {
		t.Errorf("%d updates sent on behalf of unknown tables", sent)
	}
}

func TestLoopedRouteRejected(t *testing.T) {
	s := New(Config{Router: 1, Domain: 7})
	s.AddNeighbor(Neighbor{Router: 2, Domain: 8})
	s.HandleUpdate(2, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
		Prefix: addr.MustParsePrefix("224.0.0.0/16"),
		ASPath: []wire.DomainID{8, 7, 9}, // contains our own domain 7
		Origin: 9,
	}}})
	if len(grib(s)) != 0 {
		t.Fatal("looped route must be rejected")
	}
}

func TestNeighborsSorted(t *testing.T) {
	s := New(Config{Router: 1, Domain: 1})
	s.AddNeighbor(Neighbor{Router: 5, Domain: 2})
	s.AddNeighbor(Neighbor{Router: 3, Domain: 3})
	ns := s.Neighbors()
	if len(ns) != 2 || ns[0].Router != 3 || ns[1].Router != 5 {
		t.Fatalf("Neighbors = %v", ns)
	}
}
