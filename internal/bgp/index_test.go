package bgp

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// scanLongestMatch is the longest match as it was before the length index:
// a scan of every selected route. Kept as the oracle.
func scanLongestMatch(s *Speaker, r *rib, a addr.Addr) (best selected, ok bool) {
	for p, sel := range r.best {
		if !p.Contains(a) || s.expired(sel.route) {
			continue
		}
		if !ok || p.Len > best.route.Prefix.Len {
			best, ok = sel, true
		}
	}
	return best, ok
}

// scanCovered is the §4.3.2 covering test as it was before the length
// index. Kept as the oracle.
func scanCovered(s *Speaker, r *rib, sel selected) bool {
	for p, rec := range r.recs {
		if rec.local != nil && p.Len < sel.route.Prefix.Len && p.ContainsPrefix(sel.route.Prefix) && !s.expired(*rec.local) {
			return true
		}
	}
	for p, b := range r.best {
		if wire.DomainID(b.route.Origin) == s.cfg.Domain &&
			p.Len < sel.route.Prefix.Len && p.ContainsPrefix(sel.route.Prefix) && !s.expired(b.route) {
			return true
		}
	}
	return false
}

// checkMirror requires best to hold exactly the records' selected routes,
// by value, and recs to hold no record with nothing in it. Caller holds s.mu.
func checkMirror(t *testing.T, table wire.Table, r *rib) {
	t.Helper()
	selected := 0
	for p, rec := range r.recs {
		if rec.prefix != p || rec.empty() {
			t.Fatalf("table %d: record %v filed under %v, empty = %v", table, rec.prefix, p, rec.empty())
		}
		if !rec.hasSel {
			if sel, ok := r.best[p]; ok {
				t.Fatalf("table %d: best[%v] = %+v, the record selects nothing", table, p, sel)
			}
			continue
		}
		selected++
		if sel, ok := r.best[p]; !ok || !reflect.DeepEqual(sel, rec.sel) {
			t.Fatalf("table %d: best[%v] = %+v (present %v), the record selects %+v", table, p, sel, ok, rec.sel)
		}
	}
	if selected != len(r.best) {
		t.Fatalf("table %d: best holds %d routes, the records select %d", table, len(r.best), selected)
	}
}

// checkIndex compares every reader of the read index with its oracle on
// one table: the mirror with the records, the counts with a recount of
// best, Lookup and LookupBackup on the probe addresses, the covering test
// on every selected route.
func checkIndex(t *testing.T, s *Speaker, table wire.Table, probes []addr.Addr) {
	t.Helper()
	s.mu.Lock()
	r := s.tables[table]
	checkMirror(t, table, r)
	var recount [33]uint32
	for p := range r.best {
		recount[p.Len]++
	}
	if recount != r.lens {
		t.Fatalf("table %d: lens = %v, recount of best = %v", table, r.lens, recount)
	}
	type answer struct {
		e  Entry
		ok bool
	}
	want := make([][2]answer, len(probes))
	for i, a := range probes {
		if cur, ok := scanLongestMatch(s, r, a); ok {
			want[i][0] = answer{s.entryOf(cur), true}
			if second, ok := s.decide(r.recs[cur.route.Prefix], &cur); ok {
				want[i][1] = answer{s.entryOf(second), true}
			}
		}
	}
	for _, sel := range r.best {
		if got, want := s.coveredByOwnOriginationLocked(table, sel), scanCovered(s, r, sel); got != want {
			t.Fatalf("table %d: covered(%v) = %v, scan says %v", table, sel.route.Prefix, got, want)
		}
	}
	s.mu.Unlock()
	for i, a := range probes {
		e, ok := s.Lookup(table, a)
		if got := (answer{e, ok}); !reflect.DeepEqual(got, want[i][0]) {
			t.Fatalf("table %d: Lookup(%v) = %+v, scan says %+v", table, a, got, want[i][0])
		}
		e, ok = s.LookupBackup(table, a)
		if got := (answer{e, ok}); !reflect.DeepEqual(got, want[i][1]) {
			t.Fatalf("table %d: LookupBackup(%v) = %+v, scan says %+v", table, a, got, want[i][1])
		}
	}
}

// TestLengthIndexMatchesScan drives every writer of the records with random
// nested prefixes of mixed lengths and lifetimes and checks, after every
// step, that best mirrors the records' selections and that the indexed
// readers answer as the scans did.
func TestLengthIndexMatchesScan(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	lens := []int{0, 1, 4, 8, 12, 16, 17, 24, 31, 32}
	neighbors := []Neighbor{{Router: 2, Domain: 2}, {Router: 3, Domain: 3}, {Router: 4, Domain: 1, Internal: true}}
	tables := []wire.Table{wire.TableMRIB, wire.TableGRIB}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.NewSim(start)
		s := New(Config{Router: 1, Domain: 1, Clock: clk, AggregateCovered: true})
		for _, n := range neighbors {
			s.AddNeighbor(n)
		}
		// Few bases and many lengths, so prefixes nest and probes hit.
		bases := []addr.Addr{addr.Addr(rng.Uint32()), addr.Addr(rng.Uint32()), addr.MakeAddr(224, 1, 2, 3)}
		bases = append(bases, bases[0]^0x00010000, bases[2]^0x00000100)
		prefix := func() addr.Prefix {
			return addr.Prefix{Base: bases[rng.Intn(len(bases))], Len: lens[rng.Intn(len(lens))]}.Canonical()
		}
		route := func(origins ...wire.DomainID) wire.Route {
			rt := wire.Route{Prefix: prefix(), Origin: origins[rng.Intn(len(origins))]}
			if rng.Intn(2) == 0 {
				rt.ExpireUnix = uint64(clk.Now().Unix()) + 1 + uint64(rng.Intn(60))
			}
			return rt
		}
		probes := make([]addr.Addr, 0, 3*len(bases)+1)
		for _, b := range bases {
			probes = append(probes, b, b^1, b^addr.Addr(rng.Intn(1<<16)))
		}
		probes = append(probes, addr.Addr(rng.Uint32()))

		for step := 0; step < 400; step++ {
			table := tables[rng.Intn(len(tables))]
			n := neighbors[rng.Intn(len(neighbors))]
			switch op := rng.Intn(16); {
			case op < 6: // announce; the internal peer also relays own-domain routes
				rt := route(1, 5, 6)
				rt.ASPath = make([]wire.DomainID, 1+rng.Intn(3))
				for i := range rt.ASPath {
					rt.ASPath[i] = wire.DomainID(10 + rng.Intn(5))
				}
				s.HandleUpdate(n.Router, &wire.Update{Table: table, Routes: []wire.Route{rt}})
			case op < 9:
				s.HandleUpdate(n.Router, &wire.Update{Table: table, Withdrawn: []addr.Prefix{prefix()}})
			case op < 10:
				s.RemoveNeighbor(n.Router, wire.TraceContext{})
				s.AddNeighbor(n)
			case op < 12:
				s.Originate(table, route(1))
			case op < 13:
				s.WithdrawLocal(table, prefix())
			case op < 14:
				s.Sweep()
			default: // let lifetimes run out under the index without a reselection
				clk.RunFor(time.Duration(1+rng.Intn(20)) * time.Second)
			}
			for _, table := range tables {
				checkIndex(t, s, table, probes)
			}
		}
	}
}

// TestLongestMatchFallsThroughExpired pins the expiry rule of the indexed
// match: an expired more-specific is skipped, not removed, and the address
// resolves to the route that covers it — down to /0, and to nothing when
// every covering route has expired.
func TestLongestMatchFallsThroughExpired(t *testing.T) {
	clk := simclock.NewSim(time.Unix(1000, 0))
	s := New(Config{Router: 1, Domain: 1, Clock: clk})
	s.AddNeighbor(Neighbor{Router: 2, Domain: 2})
	route := func(p string, expire uint64) wire.Route {
		return wire.Route{Prefix: addr.MustParsePrefix(p), ASPath: []wire.DomainID{2}, Origin: 2, ExpireUnix: expire}
	}
	s.HandleUpdate(2, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{
		route("0.0.0.0/0", 1300), route("224.0.0.0/8", 1200), route("224.1.0.0/16", 0), route("224.1.2.0/24", 1100),
	}})
	in24, in8 := addr.MakeAddr(224, 1, 2, 3), addr.MakeAddr(224, 9, 9, 9)
	for _, c := range []struct {
		at   int64
		a    addr.Addr
		want string
	}{
		{1000, in24, "224.1.2.0/24"},
		{1100, in24, "224.1.0.0/16"}, // the /24 expired, still in best
		{1100, in8, "224.0.0.0/8"},
		{1200, in8, "0.0.0.0/0"},
		{1200, addr.MakeAddr(10, 0, 0, 1), "0.0.0.0/0"},
		{1300, in8, ""},
		{1300, in24, "224.1.0.0/16"},
	} {
		clk.RunUntil(time.Unix(c.at, 0))
		e, ok := s.Lookup(wire.TableGRIB, c.a)
		if got := e.Route.Prefix.String(); ok != (c.want != "") || (ok && got != c.want) {
			t.Errorf("t=%d Lookup(%v) = %s ok=%v, want %q", c.at, c.a, got, ok, c.want)
		}
	}
	if n := len(s.tables[wire.TableGRIB].best); n != 4 {
		t.Fatalf("best holds %d routes; the test needs the expired ones still in it", n)
	}
}

// TestLookupDoesNotAllocate pins the read path at zero allocations, hit or
// miss, with and without an expiry to check.
func TestLookupDoesNotAllocate(t *testing.T) {
	s := loadedSpeaker(175)
	s.HandleUpdate(2, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{
		Prefix: addr.MustParsePrefix("239.0.0.0/8"), ASPath: []wire.DomainID{2}, Origin: 2,
		ExpireUnix: uint64(time.Now().Add(time.Hour).Unix()),
	}}})
	for name, c := range map[string]struct {
		a   addr.Addr
		hit bool
	}{
		"hit":          {addr.MakeAddr(224, 0, 87, 9), true},
		"hit-expiring": {addr.MakeAddr(239, 1, 1, 1), true},
		"miss":         {addr.MakeAddr(10, 0, 0, 1), false},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if _, ok := s.Lookup(wire.TableGRIB, c.a); ok != c.hit {
				t.Fatalf("%s: ok = %v", name, ok)
			}
		}); got != 0 {
			t.Errorf("%s: %v allocations per Lookup, want 0", name, got)
		}
	}
}
