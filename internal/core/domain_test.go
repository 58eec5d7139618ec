package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/wire"
)

// TestLazySourceMatchesNewSource draws the same mix from a rand.Rand over
// rand.NewSource(seed) and one over a lazySource, before and after a
// reseed: every stream must be the same draw for draw.
func TestLazySourceMatchesNewSource(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		var out []int64
		for range 20 {
			out = append(out, r.Int63(), int64(r.Uint64()), int64(r.Intn(1000)), int64(r.Float64()*(1<<53)))
			for _, v := range r.Perm(7) {
				out = append(out, int64(v))
			}
			s := []int64{1, 2, 3, 4, 5, 6}
			r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			out = append(out, s...)
		}
		return out
	}
	for _, seed := range []int64{0, 1, 42, 1998*1000 + 2, -7} {
		want, got := rand.New(rand.NewSource(seed)), rand.New(&lazySource{seed: seed})
		if w, g := draws(want), draws(got); !slices.Equal(w, g) {
			t.Fatalf("seed %d: lazySource drew %v, rand.NewSource %v", seed, g, w)
		}
		want.Seed(seed + 1)
		got.Seed(seed + 1)
		if w, g := draws(want), draws(got); !slices.Equal(w, g) {
			t.Fatalf("seed %d reseeded: lazySource drew %v, rand.NewSource %v", seed, g, w)
		}
	}
}

// TestIdleDomainBuildsNoSource builds the paper's network, lets A, B and
// C claim and B lease a group, and requires the sources that drew to be
// built and those of H, a non-top-level domain that neither claims nor
// leases, not to be.
func TestIdleDomainBuildsNoSource(t *testing.T) {
	n, clk := paperNet(t, false, false)
	allocateSpaces(t, n, clk)
	if _, err := n.Domain(2).NewGroup(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// built reports whether the lazySource behind the Rand in owner's
	// unexported cfg (a MASC node's or a MAAS server's) has drawn.
	built := func(owner any) bool {
		src := reflect.ValueOf(owner).Elem().FieldByName("cfg").FieldByName("Rand").Elem().FieldByName("src").Elem()
		if src.Type() != reflect.TypeOf(&lazySource{}) {
			t.Fatalf("%T draws from a %v, not a lazySource", owner, src.Type())
		}
		return !src.Elem().FieldByName("src").IsNil()
	}
	for _, c := range []struct {
		id         wire.DomainID
		masc, maas bool
	}{{1, true, false}, {2, true, true}, {3, true, false}, {8, false, false}} {
		d := n.Domain(c.id)
		if got := built(d.MASC()); got != c.masc {
			t.Errorf("domain %d: MASC source built = %v, want %v", c.id, got, c.masc)
		}
		if got := built(d.MAAS()); got != c.maas {
			t.Errorf("domain %d: MAAS source built = %v, want %v", c.id, got, c.maas)
		}
	}
}

// TestDomainAddrAnswersFromAnchors requires domainAddr to give every added
// domain with a host prefix the prefix's base, and to refuse a domain it
// never heard of and one whose host prefix is absent or /0. A reader runs
// beside the AddDomain calls, as a send does, for the race detector.
func TestDomainAddrAnswersFromAnchors(t *testing.T) {
	n, err := NewNetwork(Config{Synchronous: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				n.domainAddr(1)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	hosts := map[wire.DomainID]addr.Prefix{
		1: addr.MustParsePrefix("10.1.0.0/16"),
		2: {},
		3: addr.MustParsePrefix("10.3.0.0/24"),
		4: addr.MustParsePrefix("0.0.0.0/0"),
		5: addr.MustParsePrefix("10.5.5.5/32"),
	}
	for id := wire.DomainID(1); id <= 5; id++ {
		if _, err := n.AddDomain(DomainConfig{ID: id, Routers: []wire.RouterID{wire.RouterID(10 * id)},
			Protocol: migp.DVMRP(), HostPrefix: hosts[id]}); err != nil {
			t.Fatal(err)
		}
	}
	for id := wire.DomainID(0); id <= 6; id++ {
		p, has := hosts[id]
		want := has && p.Len > 0
		if a, ok := n.domainAddr(id); ok != want || (ok && a != p.Base) {
			t.Errorf("domainAddr(%d) = %v, %v; want %v, %v", id, a, ok, p.Base, want)
		}
	}
}
