package core

import (
	"errors"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" means valid
	}{
		{"zero value", Config{}, ""},
		{"synchronous", Config{Synchronous: true}, ""},
		{"negative masc wait", Config{MASCWait: -time.Hour}, "MASCWait"},
		{"negative claim lifetime", Config{ClaimLifetime: -time.Second}, "ClaimLifetime"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			// NewNetwork must reject the same config.
			if _, nerr := NewNetwork(tc.cfg); nerr == nil {
				t.Fatal("NewNetwork accepted an invalid config")
			}
		})
	}
}

func TestUnlinkNotLinked(t *testing.T) {
	n, err := NewNetwork(Config{Synchronous: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []DomainConfig{
		{ID: 1, Routers: []wire.RouterID{11}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 1, 0, 0), Len: 16}},
		{ID: 2, Routers: []wire.RouterID{21}, Protocol: migp.DVMRP(),
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 2, 0, 0), Len: 16}},
	} {
		if _, err := n.AddDomain(dc); err != nil {
			t.Fatal(err)
		}
	}

	// Never linked: typed error.
	if err := n.Unlink(11, 21); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("Unlink(unlinked) = %v, want ErrNotLinked", err)
	}
	// Link, unlink, unlink again: second unlink reports not linked.
	if err := n.Link(11, 21); err != nil {
		t.Fatal(err)
	}
	if err := n.Unlink(11, 21); err != nil {
		t.Fatalf("Unlink(linked) = %v", err)
	}
	if err := n.Unlink(11, 21); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("second Unlink = %v, want ErrNotLinked", err)
	}
	// Unknown routers are still a plain error, not ErrNotLinked's business.
	if err := n.Unlink(98, 99); err == nil {
		t.Fatal("Unlink(unknown routers) = nil, want error")
	}
}

// TestQuiesceDrainsAsyncNetwork replays the async convergence scenario but
// waits with Quiesce instead of sleep-polling, and checks the transport
// counters recorded real wire traffic.
func TestQuiesceDrainsAsyncNetwork(t *testing.T) {
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	ob := obs.NewObserver()
	n, err := NewNetwork(Config{Clock: clk, Seed: 42, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []struct {
		id      wire.DomainID
		routers []wire.RouterID
		top     bool
	}{
		{1, []wire.RouterID{11, 12}, true},
		{2, []wire.RouterID{21}, false},
		{3, []wire.RouterID{31}, false},
	} {
		if _, err := n.AddDomain(DomainConfig{
			ID: dc.id, Routers: dc.routers, Protocol: migp.DVMRP(), TopLevel: dc.top,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(dc.id), 0, 0), Len: 16},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Link(21, 11); err != nil {
		t.Fatal(err)
	}
	if err := n.Link(31, 12); err != nil {
		t.Fatal(err)
	}
	n.MASCPeerParentChild(1, 2)
	n.MASCPeerParentChild(1, 3)

	n.Domain(1).MASC().RequestSpace(1<<16, 60*24*time.Hour)
	clk.RunFor(49 * time.Hour)
	n.Domain(2).MASC().RequestSpace(256, 30*24*time.Hour)
	clk.RunFor(49 * time.Hour)
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after MASC: %v", err)
	}

	lease, err := n.Domain(2).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	n.Domain(3).Join(lease.Addr, 0)
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after join: %v", err)
	}

	src := n.Domain(2).HostAddr(1)
	n.Domain(2).Send(lease.Addr, src, "quiesce hello", 0)
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after send: %v", err)
	}

	got := n.Domain(3).Received()
	if len(got) != 1 || got[0].Payload != "quiesce hello" {
		t.Fatalf("delivery after Quiesce = %v", got)
	}

	s := ob.Snapshot()
	if s.Total(obs.TransportSent) == 0 || s.Total(obs.TransportRecv) == 0 {
		t.Fatalf("transport counters empty:\n%s", s)
	}
	if s.Total(obs.DataDelivered) == 0 {
		t.Fatalf("no data.delivered recorded:\n%s", s)
	}
}
