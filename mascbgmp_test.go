package mascbgmp_test

import (
	"errors"
	"testing"
	"time"

	"mascbgmp"
)

// TestFacadeEndToEnd drives the whole system through the public API only:
// two domains, MASC allocation, a MAAS lease, a BGMP tree, one packet.
func TestFacadeEndToEnd(t *testing.T) {
	clk := mascbgmp.NewSimClock(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	net, err := mascbgmp.NewNetwork(mascbgmp.Config{
		Clock:       clk,
		Seed:        7,
		Synchronous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []mascbgmp.DomainConfig{
		{ID: 1, Routers: []mascbgmp.RouterID{11, 12}, Protocol: mascbgmp.NewDVMRP(),
			TopLevel: true, HostPrefix: mascbgmp.MustParsePrefix("10.1.0.0/16")},
		{ID: 2, Routers: []mascbgmp.RouterID{21}, Protocol: mascbgmp.NewPIMSM(1),
			HostPrefix: mascbgmp.MustParsePrefix("10.2.0.0/16")},
		{ID: 3, Routers: []mascbgmp.RouterID{31}, Protocol: mascbgmp.NewCBT(),
			HostPrefix: mascbgmp.MustParsePrefix("10.3.0.0/16")},
	} {
		if _, err := net.AddDomain(dc); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Link(21, 11); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(31, 12); err != nil {
		t.Fatal(err)
	}
	if err := net.MASCPeerParentChild(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.MASCPeerParentChild(1, 3); err != nil {
		t.Fatal(err)
	}

	// MASC: the backbone claims from 224/4, the customer claims within.
	if !net.Domain(1).MASC().RequestSpace(1<<16, 60*24*time.Hour) {
		t.Fatal("top-level claim failed")
	}
	clk.RunFor(49 * time.Hour)
	if !net.Domain(2).MASC().RequestSpace(256, 30*24*time.Hour) {
		t.Fatal("child claim failed")
	}
	clk.RunFor(49 * time.Hour)

	// MAAS: a session in domain 2 gets an address from 2's range.
	lease, err := net.Domain(2).NewGroup(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Addr.IsMulticast() {
		t.Fatalf("leased %v", lease.Addr)
	}

	// BGMP: domain 3 joins; a non-member host in domain 1 sends.
	net.Domain(3).Join(lease.Addr, 0)
	src := net.Domain(1).HostAddr(1)
	net.Domain(1).Send(lease.Addr, src, "facade", 0)
	got := net.Domain(3).Received()
	if len(got) != 1 || got[0].Payload != "facade" {
		t.Fatalf("delivery = %v", got)
	}
}

// TestFacadeObservability reruns the end-to-end scenario with an Observer
// attached through the public API and checks each protocol layer showed up
// in the metrics, plus the redesigned error surface.
func TestFacadeObservability(t *testing.T) {
	clk := mascbgmp.NewSimClock(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	ob := mascbgmp.NewObserver()
	var claims int
	ob.Subscribe(func(e mascbgmp.Event) {
		if e.Kind == mascbgmp.EventMASCClaim {
			claims++
		}
	})
	net, err := mascbgmp.NewNetwork(mascbgmp.Config{
		Clock:       clk,
		Seed:        7,
		Synchronous: true,
		Observer:    ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []mascbgmp.DomainConfig{
		{ID: 1, Routers: []mascbgmp.RouterID{11, 12}, Protocol: mascbgmp.NewDVMRP(),
			TopLevel: true, HostPrefix: mascbgmp.MustParsePrefix("10.1.0.0/16")},
		{ID: 2, Routers: []mascbgmp.RouterID{21}, Protocol: mascbgmp.NewPIMSM(1),
			HostPrefix: mascbgmp.MustParsePrefix("10.2.0.0/16")},
		{ID: 3, Routers: []mascbgmp.RouterID{31}, Protocol: mascbgmp.NewCBT(),
			HostPrefix: mascbgmp.MustParsePrefix("10.3.0.0/16")},
	} {
		if _, err := net.AddDomain(dc); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Link(21, 11); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(31, 12); err != nil {
		t.Fatal(err)
	}
	net.MASCPeerParentChild(1, 2)
	net.MASCPeerParentChild(1, 3)

	net.Domain(1).MASC().RequestSpace(1<<16, 60*24*time.Hour)
	clk.RunFor(49 * time.Hour)
	net.Domain(2).MASC().RequestSpace(256, 30*24*time.Hour)
	clk.RunFor(49 * time.Hour)

	lease, err := net.Domain(2).NewGroup(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	net.Domain(3).Join(lease.Addr, 0)
	src := net.Domain(1).HostAddr(1)
	net.Domain(1).Send(lease.Addr, src, "observed", 0)
	if got := net.Domain(3).Received(); len(got) != 1 {
		t.Fatalf("delivery = %v", got)
	}
	// Synchronous networks are trivially quiescent.
	if err := net.Quiesce(time.Second); err != nil {
		t.Fatalf("Quiesce on sync net = %v", err)
	}

	s := net.Observer().Snapshot()
	totals := s.NameTotals() // the facade's view: totals by rendered name
	for _, name := range []string{
		"masc.claim", "masc.won", "bgp.announce",
		"bgmp.join", "data.delivered", "maas.lease",
	} {
		if totals[name] == 0 {
			t.Errorf("counter %q is zero:\n%s", name, s)
		}
	}
	if claims == 0 {
		t.Error("subscriber saw no MASC claims")
	}
	if s.String() == "" || s.Totals() == "" {
		t.Error("snapshot renders empty")
	}

	// Redesigned error surface, through the facade.
	if err := net.Unlink(12, 21); !errors.Is(err, mascbgmp.ErrNotLinked) {
		t.Errorf("Unlink(unlinked) = %v, want ErrNotLinked", err)
	}
	_, err = mascbgmp.NewNetwork(mascbgmp.Config{MASCWait: -time.Hour})
	var ce *mascbgmp.ConfigError
	if !errors.As(err, &ce) || ce.Field != "MASCWait" {
		t.Errorf("NewNetwork(negative MASCWait) = %v, want *ConfigError{Field: MASCWait}", err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	cfg := mascbgmp.DefaultFig2Config()
	cfg.TopLevel, cfg.ChildrenPer, cfg.Days = 4, 4, 40
	res := mascbgmp.RunFig2(cfg)
	if res.Satisfied == 0 || len(res.Samples) == 0 {
		t.Fatal("fig2 produced nothing")
	}

	f4 := mascbgmp.DefaultFig4Config()
	f4.Domains, f4.GroupSizes, f4.Trials = 200, []int{10}, 2
	pts := mascbgmp.RunFig4(f4)
	if len(pts) != 1 || pts[0].UniAvg < 1 {
		t.Fatalf("fig4 = %v", pts)
	}
}

func TestFacadeAddrHelpers(t *testing.T) {
	a, err := mascbgmp.ParseAddr("224.0.1.9")
	if err != nil || !a.IsMulticast() {
		t.Fatal("ParseAddr")
	}
	p, err := mascbgmp.ParsePrefix("224.0.0.0/8")
	if err != nil || !mascbgmp.MulticastSpace.ContainsPrefix(p) {
		t.Fatal("ParsePrefix")
	}
	g := mascbgmp.ASGraph(100, 10, 3)
	if g.NumDomains() != 100 || !g.Connected() {
		t.Fatal("ASGraph")
	}
}

func TestFacadeAllProtocols(t *testing.T) {
	for _, p := range []mascbgmp.MIGP{
		mascbgmp.NewDVMRP(), mascbgmp.NewPIMSM(0), mascbgmp.NewPIMDM(3),
		mascbgmp.NewCBT(), mascbgmp.NewMOSPF(),
	} {
		if p.Name() == "" {
			t.Fatal("unnamed protocol")
		}
	}
}
