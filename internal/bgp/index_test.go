package bgp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// scanLongestMatch is the longest match as it was before the length index:
// a scan of every record's selected route. Kept as the oracle.
func scanLongestMatch(r *rib, a addr.Addr, clk *clock) (best *record, sel selected, ok bool) {
	for _, rec := range r.recs {
		p := rec.prefix()
		if rec.sel.kind == pickNone || !p.Contains(a) {
			continue
		}
		if cand := rec.chosen(rec.sel, nil); !clk.expired(cand.expire) && (!ok || p.Len > best.prefix().Len) {
			best, sel, ok = rec, cand, true
		}
	}
	return best, sel, ok
}

// scanCovered is the §4.3.2 covering test of prefix q as it was before the
// length index: a scan of the originations and of the selected routes.
// Kept as the oracle.
func scanCovered(s *Speaker, r *rib, q addr.Prefix, clk *clock) bool {
	for _, rec := range r.recs {
		p := rec.prefix()
		if p.Len >= q.Len || !p.ContainsPrefix(q) {
			continue
		}
		if rec.local != nil && !clk.expired(rec.local.ExpireUnix) {
			return true
		}
		if rec.sel.kind == pickNone {
			continue
		}
		if b := rec.chosen(rec.sel, nil); b.origin == s.cfg.Domain && !clk.expired(b.expire) {
			return true
		}
	}
	return false
}

// checkMirror is checkMirrorAt at the end of time, for callers without the
// speaker's clock.
func checkMirror(t *testing.T, table wire.Table, r *rib) {
	t.Helper()
	checkMirrorAt(t, table, r, &clock{now: math.MaxUint64})
}

// checkMirrorAt requires, at quiescence, every record to be filed under its
// own key, to hold something, and to name as its selection what decide
// returns for it at some moment no later than clk's: the reselection that
// last visited it ran then, and lifetimes that have run out since leave the
// selection standing until the next one. The moments worth trying are the
// start of time and each candidate's expiry, between which decide cannot
// change its answer. No selection may be a saved copy. Caller holds s.mu.
func checkMirrorAt(t *testing.T, table wire.Table, r *rib, clk *clock) {
	t.Helper()
	now := clk.now
	if now == 0 {
		now = uint64(clk.src.Now().Unix())
	}
	for k, rec := range r.recs {
		if rec.key != k || rec.empty() {
			t.Fatalf("table %d: record %v filed under %v, empty = %v", table, rec.prefix(), prefixOf(k), rec.empty())
		}
		if rec.sel.kind == pickSaved {
			t.Fatalf("table %d: %v's selection %+v is a saved copy at quiescence", table, rec.prefix(), rec.sel)
		}
		moments := []uint64{1}
		if rec.local != nil && rec.local.ExpireUnix != 0 && rec.local.ExpireUnix <= now {
			moments = append(moments, rec.local.ExpireUnix)
		}
		for _, pr := range rec.in {
			if pr.expire != 0 && pr.expire <= now {
				moments = append(moments, pr.expire)
			}
		}
		decided := false
		for _, at := range moments {
			if decide(rec, nil, &clock{now: at}) == rec.sel {
				decided = true
				break
			}
		}
		if !decided {
			t.Fatalf("table %d: %v selects %+v, which decide returns at none of %v (now %d): local %+v, in %+v",
				table, rec.prefix(), rec.sel, moments, now, rec.local, rec.in)
		}
	}
}

// checkIndex compares every reader of the read index with its oracle on
// one table: each record's selection with decide, the counts with a
// recount of the records that have one, Lookup and both answers of one
// LookupBackup on the probe addresses (the scan's match, and decide over it
// with its source skipped), the covering test on every selected route.
func checkIndex(t *testing.T, s *Speaker, table wire.Table, probes []addr.Addr) {
	t.Helper()
	s.mu.Lock()
	r, clk := s.tables[table], clock{src: s.cfg.Clock}
	checkMirrorAt(t, table, r, &clk)
	if len(s.saved) != 0 {
		t.Fatalf("table %d: %d saved copies outlive the reselection", table, len(s.saved))
	}
	var recount [33]uint32
	for _, rec := range r.recs {
		if rec.sel.kind != pickNone {
			recount[rec.prefix().Len]++
		}
	}
	if recount != r.lens {
		t.Fatalf("table %d: lens = %v, recount of the selections = %v", table, r.lens, recount)
	}
	type answer struct {
		e  Entry
		ok bool
	}
	want := make([][2]answer, len(probes))
	for i, a := range probes {
		if rec, cur, ok := scanLongestMatch(r, a, &clk); ok {
			want[i][0] = answer{s.entryOf(rec.prefix(), &cur), true}
			if second := decide(rec, &cur, &clk); second.kind != pickNone {
				sel := rec.chosen(second, nil)
				want[i][1] = answer{s.entryOf(rec.prefix(), &sel), true}
			}
		}
	}
	for _, rec := range r.recs {
		if rec.sel.kind == pickNone {
			continue
		}
		p := rec.prefix()
		if got, want := s.coveredByOwnOriginationLocked(table, p, &clk), scanCovered(s, r, p, &clk); got != want {
			t.Fatalf("table %d: covered(%v) = %v, scan says %v", table, p, got, want)
		}
	}
	s.mu.Unlock()
	for i, a := range probes {
		e, ok := s.Lookup(table, a)
		if got := (answer{e, ok}); !reflect.DeepEqual(got, want[i][0]) {
			t.Fatalf("table %d: Lookup(%v) = %+v, scan says %+v", table, a, got, want[i][0])
		}
		best, backup, ok, hasBackup := s.LookupBackup(table, a)
		if got := (answer{best, ok}); !reflect.DeepEqual(got, want[i][0]) {
			t.Fatalf("table %d: LookupBackup(%v) best = %+v, scan says %+v", table, a, got, want[i][0])
		}
		if got := (answer{backup, hasBackup}); !reflect.DeepEqual(got, want[i][1]) {
			t.Fatalf("table %d: LookupBackup(%v) backup = %+v, scan says %+v", table, a, got, want[i][1])
		}
	}
}

// TestLengthIndexMatchesScan drives every writer of the records with random
// nested prefixes of mixed lengths and lifetimes and checks, after every
// step, that each record selects what decide does and that the indexed
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
		{1100, in24, "224.1.0.0/16"}, // the /24 expired, still selected
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
	if n := len(s.tables[wire.TableGRIB].sortedSelected()); n != 4 {
		t.Fatalf("%d prefixes have a selected route; the test needs the expired ones still selected", n)
	}
}

// TestLookupBackupFallsThroughExpired pins both answers of LookupBackup
// across the two expiries the random test reaches only by chance: a best
// route that has expired while its prefix's runner-up is still live sends
// the match, and with it the backup, to the covering prefix; a runner-up
// that has expired leaves the best without a backup.
func TestLookupBackupFallsThroughExpired(t *testing.T) {
	clk := simclock.NewSim(time.Unix(1000, 0))
	s := New(Config{Router: 1, Domain: 1, Clock: clk})
	s.AddNeighbor(Neighbor{Router: 2, Domain: 2})
	s.AddNeighbor(Neighbor{Router: 3, Domain: 3})
	route := func(p string, path []wire.DomainID, expire uint64) wire.Route {
		return wire.Route{Prefix: addr.MustParsePrefix(p), ASPath: path, Origin: 9, ExpireUnix: expire}
	}
	// Peer 2's paths are shorter, so it is the best for both prefixes.
	s.HandleUpdate(2, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{
		route("224.1.2.0/24", []wire.DomainID{2, 9}, 1100), route("224.1.0.0/16", []wire.DomainID{2, 9}, 0),
	}})
	s.HandleUpdate(3, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{
		route("224.1.2.0/24", []wire.DomainID{3, 4, 9}, 0), route("224.1.0.0/16", []wire.DomainID{3, 4, 9}, 1200),
	}})
	in24, in16 := addr.MakeAddr(224, 1, 2, 3), addr.MakeAddr(224, 1, 9, 9)
	for _, c := range []struct {
		at     int64
		a      addr.Addr
		prefix string
		backup wire.RouterID // 0: none
	}{
		{1000, in24, "224.1.2.0/24", 3},
		{1000, in16, "224.1.0.0/16", 3},
		{1100, in24, "224.1.0.0/16", 3}, // the /24's best expired; its live runner-up is not consulted
		{1200, in24, "224.1.0.0/16", 0}, // the /16's runner-up expired
		{1200, in16, "224.1.0.0/16", 0},
	} {
		clk.RunUntil(time.Unix(c.at, 0))
		best, backup, ok, hasBackup := s.LookupBackup(wire.TableGRIB, c.a)
		if !ok || best.Route.Prefix.String() != c.prefix || best.NextHop != 2 {
			t.Errorf("t=%d LookupBackup(%v) best = %v ok=%v, want %s via 2", c.at, c.a, best, ok, c.prefix)
		}
		if hasBackup != (c.backup != 0) || (hasBackup && (backup.NextHop != c.backup || backup.Route.Prefix != best.Route.Prefix)) {
			t.Errorf("t=%d LookupBackup(%v) backup = %v hasBackup=%v, want %s via %d", c.at, c.a, backup, hasBackup, c.prefix, c.backup)
		}
		if e, _ := s.Lookup(wire.TableGRIB, c.a); !reflect.DeepEqual(e, best) {
			t.Errorf("t=%d Lookup(%v) = %v, LookupBackup's best is %v", c.at, c.a, e, best)
		}
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

// TestKeyRoundTripsAndSortsAsCompare pins the word key both maps are keyed
// by: it gives back its prefix at every length, keeps a base's lengths
// apart, and sorts as addr.Compare does, so sortedSelected's plain sort
// walks the prefixes in their order.
func TestKeyRoundTripsAndSortsAsCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for l := 0; l <= 32; l++ {
		p := addr.Prefix{Base: addr.Addr(rng.Uint32()), Len: l}.Canonical()
		if got := prefixOf(key(p)); got != p {
			t.Fatalf("prefixOf(key(%v)) = %v", p, got)
		}
	}
	for _, c := range [][2]string{{"0.0.0.0/0", "0.0.0.0/32"}, {"10.0.0.0/8", "10.0.0.0/16"}} {
		if key(addr.MustParsePrefix(c[0])) == key(addr.MustParsePrefix(c[1])) {
			t.Errorf("%s and %s share a key", c[0], c[1])
		}
	}
	// Few bases, so that equal bases with different lengths are common.
	bases := []addr.Addr{0, addr.MakeAddr(10, 0, 0, 0), addr.MakeAddr(224, 1, 2, 3), ^addr.Addr(0)}
	prefixes := make([]addr.Prefix, 500)
	for i := range prefixes {
		base := bases[rng.Intn(len(bases))]
		if rng.Intn(2) == 0 {
			base = addr.Addr(rng.Uint32())
		}
		prefixes[i] = addr.Prefix{Base: base, Len: rng.Intn(33)}.Canonical()
	}
	keys := make([]uint64, len(prefixes))
	for i, p := range prefixes {
		keys[i] = key(p)
	}
	slices.Sort(keys)
	slices.SortFunc(prefixes, addr.Compare)
	for i, k := range keys {
		if got := prefixOf(k); got != prefixes[i] {
			t.Fatalf("sorted key %d is %v, addr.Compare puts %v there", i, got, prefixes[i])
		}
	}
}

// TestRewrittenSelectionComparesWithTheSavedCopy pins the reselection's
// "changed" test across writes that overwrite the selected route before
// the pass decides it. One UPDATE rewrites the selected peer's route and
// restores it: the pass must compare with the route as selected before the
// UPDATE, not with the rewrite in between. A second UPDATE withdraws the
// route and announces it again unchanged: the withdrawal moves the other
// peer's route into the dropped one's place, so without the saved copy the
// selection reads the other peer's route as the prior decision. Neither
// UPDATE changes anything, so neither may raise a note or send an UPDATE.
func TestRewrittenSelectionComparesWithTheSavedCopy(t *testing.T) {
	var log []emission
	s := New(recordInto(&log, simclock.NewSim(time.Unix(1000, 0)), nil))
	s.AddNeighbor(Neighbor{Router: 2, Domain: 2})
	s.AddNeighbor(Neighbor{Router: 3, Domain: 3})
	p := addr.MustParsePrefix("224.1.0.0/16")
	route := func(path ...wire.DomainID) wire.Route {
		return wire.Route{Prefix: p, ASPath: path, Origin: 9}
	}
	s.HandleUpdate(2, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{route(2, 9)}})
	s.HandleUpdate(3, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{route(3, 4, 9)}})
	if e, ok := s.LookupPrefix(wire.TableGRIB, p); !ok || e.NextHop != 2 {
		t.Fatalf("set-up selects %v ok=%v, want peer 2's shorter path", e, ok)
	}
	for _, u := range []*wire.Update{
		{Table: wire.TableGRIB, Routes: []wire.Route{route(2, 5, 6, 7, 9), route(2, 9)}},
		{Table: wire.TableGRIB, Withdrawn: []addr.Prefix{p}, Routes: []wire.Route{route(2, 9)}},
	} {
		log = log[:0]
		s.HandleUpdate(2, u)
		if len(log) != 0 {
			t.Errorf("HandleUpdate(2, %+v) left the selection as it was and emitted %+v", u, log)
		}
		s.mu.Lock()
		checkMirror(t, wire.TableGRIB, s.tables[wire.TableGRIB])
		s.mu.Unlock()
	}
}

// TestCoveringTestSeesThePriorDecision pins what the §4.3.2 test reads in
// the middle of a pass: a covering record the UPDATE has written but the
// pass has not decided yet answers with its selection from before the
// UPDATE, as the five-map speaker's best map did. One UPDATE from an
// internal peer announces a /16 and then changes the origin of the /8 that
// covers it, from the own domain to another: the /16 is decided first and
// is judged covered by an own-domain route, so only the /8 goes out to the
// external peers. Read through the rewritten record, the /16 would go out
// as well.
func TestCoveringTestSeesThePriorDecision(t *testing.T) {
	var log []emission
	s := New(recordInto(&log, simclock.NewSim(time.Unix(1000, 0)), nil))
	s.AddNeighbor(Neighbor{Router: 2, Domain: 2})
	s.AddNeighbor(Neighbor{Router: 3, Domain: 3})
	s.AddNeighbor(Neighbor{Router: 4, Domain: 1, Internal: true})
	wide, narrow := addr.MustParsePrefix("224.0.0.0/8"), addr.MustParsePrefix("224.1.0.0/16")
	// A sibling border's own origination of the /8, relayed over the mesh.
	s.HandleUpdate(4, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{{Prefix: wide, Origin: 1}}})
	log = log[:0]
	s.HandleUpdate(4, &wire.Update{Table: wire.TableGRIB, Routes: []wire.Route{
		{Prefix: narrow, ASPath: []wire.DomainID{6}, Origin: 6},
		{Prefix: wide, ASPath: []wire.DomainID{6}, Origin: 6},
	}})
	var sent []emission
	for _, e := range log {
		if !e.note {
			sent = append(sent, e)
		}
	}
	want := []emission{
		{to: 2, table: wire.TableGRIB, routes: []wire.Route{{Prefix: wide, ASPath: []wire.DomainID{1, 6}, Origin: 6}}},
		{to: 3, table: wire.TableGRIB, routes: []wire.Route{{Prefix: wide, ASPath: []wire.DomainID{1, 6}, Origin: 6}}},
	}
	if !reflect.DeepEqual(sent, want) {
		t.Errorf("sent %+v, want the /8 alone to each external peer: %+v", sent, want)
	}
}
