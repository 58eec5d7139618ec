package bgp

import (
	"fmt"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// loadedSpeaker returns a speaker with n G-RIB routes learned from one
// peer, roughly the paper's steady-state G-RIB scale at n≈175.
func loadedSpeaker(n int) *Speaker {
	s := New(Config{Router: 1, Domain: 1, AggregateCovered: true})
	s.AddNeighbor(Neighbor{Router: 2, Domain: 2})
	loadRoutes(s, wire.TableGRIB, 224, n)
	return s
}

// loadRoutes teaches s n /24 routes under first.0.0.0/8 from peer 2.
func loadRoutes(s *Speaker, table wire.Table, first byte, n int) {
	routes := make([]wire.Route, 0, n)
	for i := 0; i < n; i++ {
		routes = append(routes, wire.Route{
			Prefix: addr.Prefix{Base: addr.MakeAddr(first, byte(i/256), byte(i%256), 0), Len: 24}.Canonical(),
			ASPath: []wire.DomainID{2, 3},
			Origin: 3,
		})
	}
	s.HandleUpdate(2, &wire.Update{Table: table, Routes: routes})
}

func BenchmarkGRIBLookup175(b *testing.B) {
	s := loadedSpeaker(175) // the paper's steady-state G-RIB size
	a := addr.MakeAddr(224, 0, 87, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(wire.TableGRIB, a); !ok {
			b.Fatal("lookup missed")
		}
	}
}

func BenchmarkGRIBLookup5000(b *testing.B) {
	s := loadedSpeaker(5000)
	a := addr.MakeAddr(224, 7, 87, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(wire.TableGRIB, a); !ok {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkMRIBLookupMissThenUnicast is core's lookupSource for a source
// whose domain has no incongruent multicast topology: the M-RIB holds
// routes, none covers it, and the unicast table answers.
func BenchmarkMRIBLookupMissThenUnicast(b *testing.B) {
	s := loadedSpeaker(0)
	loadRoutes(s, wire.TableMRIB, 11, 200)
	loadRoutes(s, wire.TableUnicast, 10, 200)
	a := addr.MakeAddr(10, 0, 87, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(wire.TableMRIB, a); ok {
			b.Fatal("M-RIB lookup hit")
		}
		if _, ok := s.Lookup(wire.TableUnicast, a); !ok {
			b.Fatal("unicast lookup missed")
		}
	}
}

// BenchmarkHandleUpdateChurn announces and withdraws one route under a
// loaded table. Peer 3 is there so the route is exported: with the source
// as the only neighbour, exportable stops at "never echo" and the §4.3.2
// covering test is never timed.
func BenchmarkHandleUpdateChurn(b *testing.B) {
	s := loadedSpeaker(500)
	s.AddNeighbor(Neighbor{Router: 3, Domain: 5})
	up := &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
		Prefix: addr.MustParsePrefix("239.1.0.0/16"),
		ASPath: []wire.DomainID{2, 4},
		Origin: 4,
	}}}
	wd := &wire.Update{Table: wire.TableGRIB, Withdrawn: []addr.Prefix{addr.MustParsePrefix("239.1.0.0/16")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HandleUpdate(2, up)
		s.HandleUpdate(2, wd)
	}
}

func BenchmarkDecisionProcessManyPeers(b *testing.B) {
	s := New(Config{Router: 1, Domain: 1})
	const peers = 8
	for p := 0; p < peers; p++ {
		s.AddNeighbor(Neighbor{Router: wire.RouterID(10 + p), Domain: wire.DomainID(10 + p)})
	}
	prefix := addr.MustParsePrefix("224.5.0.0/16")
	// Pre-load alternatives from every peer.
	for p := 0; p < peers; p++ {
		path := make([]wire.DomainID, 1+p%4)
		for j := range path {
			path[j] = wire.DomainID(20 + j)
		}
		s.HandleUpdate(wire.RouterID(10+p), &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
			Prefix: prefix, ASPath: path, Origin: 99,
		}}})
	}
	flip := &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
		Prefix: prefix, ASPath: []wire.DomainID{20}, Origin: 99,
	}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HandleUpdate(10, flip)
	}
}

func TestTableSnapshotSorted(t *testing.T) {
	s := loadedSpeaker(50)
	entries := s.Table(wire.TableGRIB)
	if len(entries) != 50 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if addr.Compare(entries[i-1].Route.Prefix, entries[i].Route.Prefix) >= 0 {
			t.Fatal("snapshot not sorted")
		}
	}
}

func TestSyncUnknownNeighborNoop(t *testing.T) {
	s := loadedSpeaker(5)
	s.Sync(99) // must not panic or send
}

func TestEntryString(t *testing.T) {
	s := loadedSpeaker(1)
	e := s.Table(wire.TableGRIB)[0]
	if e.String() == "" {
		t.Fatal("empty Entry string")
	}
	if fmt.Sprint(e) == "" {
		t.Fatal("unformattable entry")
	}
}
