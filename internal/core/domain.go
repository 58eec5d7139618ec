package core

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/maas"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// DomainConfig describes one domain to add to a Network.
type DomainConfig struct {
	ID wire.DomainID
	// Routers lists the border router IDs (must be globally unique).
	Routers []wire.RouterID
	// InteriorNodes is the size of the interior router graph; border
	// routers attach to nodes 0..len(Routers)-1. Defaults to
	// len(Routers) when smaller.
	InteriorNodes int
	// Protocol is the domain's MIGP; required (the architecture's
	// MIGP-independence means any implementation plugs in here).
	Protocol *migp.Protocol
	// TopLevel marks a backbone domain with no MASC parent.
	TopLevel bool
	// HostPrefix is the domain's unicast prefix (for source addresses),
	// originated into the unicast table only: RPF reads the M-RIB, else
	// unicast, and no world here is incongruent. Optional.
	HostPrefix addr.Prefix
	// Export is the domain's BGP export policy; nil exports everything.
	Export bgp.ExportFilter
}

// Domain is one autonomous system in the network.
type Domain struct {
	ID  wire.DomainID
	net *Network

	mu sync.Mutex
	// The unannotated fields below are assigned once inside AddDomain,
	// before the domain is published into Network.domains, and never
	// reassigned — immutable after construction, so they need no guard.
	routers      []*Router
	fabric       *migp.Fabric
	interior     *topology.Graph
	masc         *masc.Node
	maas         *maas.Server
	mascChildren []wire.DomainID // guarded by mu
	hostPrefix   addr.Prefix
	// dpStore is the overlay membership shared by the domain's border
	// routers when an overlay data plane (BIER / map-encap) is selected.
	// It models group state carried by the domain's routing underlay, so
	// it survives individual router crashes (dataplane.Backend.Reset).
	dpStore *dataplane.Store
	// received logs data deliveries to interior members, newest last.
	// guarded by mu
	received []Delivery
}

// Delivery records one packet reaching one interior member.
type Delivery struct {
	Group   addr.Addr
	Source  addr.Addr
	Node    migp.Node
	Payload string
}

// AddDomain creates a domain, its border routers (internally full-meshed),
// its MASC node, MAAS, and interior fabric.
func (n *Network) AddDomain(cfg DomainConfig) (*Domain, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("core: domain %d needs an interior protocol", cfg.ID)
	}
	if len(cfg.Routers) == 0 {
		return nil, fmt.Errorf("core: domain %d needs at least one border router", cfg.ID)
	}
	n.mu.Lock()
	if _, dup := n.domains[cfg.ID]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: duplicate domain %d", cfg.ID)
	}
	n.mu.Unlock()

	d := &Domain{ID: cfg.ID, net: n, hostPrefix: cfg.HostPrefix, dpStore: dataplane.NewStore()}

	// Interior topology: a path graph with borders at the front — small
	// and deterministic; examples needing richer interiors can grow it.
	in := cfg.InteriorNodes
	if in < len(cfg.Routers) {
		in = len(cfg.Routers)
	}
	d.interior = topology.New(in)
	for i := 0; i < in-1; i++ {
		d.interior.AddLink(topology.DomainID(i), topology.DomainID(i+1))
	}

	d.fabric = migp.NewFabric(migp.FabricConfig{
		Domain:   cfg.ID,
		Graph:    d.interior,
		Protocol: cfg.Protocol,
		BestExit: d.bestExit,
		OnHostDeliver: func(node migp.Node, data *wire.Data) {
			n.frameMu.Lock()
			payload := n.sent
			n.frameMu.Unlock()
			if string(data.Payload) != payload {
				payload = string(data.Payload) // a deferred or interleaved send's own bytes
			}
			d.mu.Lock()
			d.received = append(d.received, Delivery{
				Group: data.Group, Source: data.Source, Node: node, Payload: payload,
			})
			d.mu.Unlock()
			if n.cfg.Observer != nil {
				n.cfg.Observer.Emit(obs.Event{Kind: obs.DataDelivered,
					Domain: cfg.ID, Group: data.Group, Source: data.Source})
			}
		},
	})

	seedBase := n.cfg.Seed + int64(cfg.ID)*1000
	for i, rid := range cfg.Routers {
		r, err := newRouter(n, d, rid, migp.Node(i), cfg.Export)
		if err != nil {
			return nil, err
		}
		d.routers = append(d.routers, r)
		n.mu.Lock()
		n.routers[rid] = r
		n.mu.Unlock()
	}
	// Full internal mesh among the domain's border routers (§2: "All the
	// border routers of a domain peer with each other").
	for i := 0; i < len(d.routers); i++ {
		for j := i + 1; j < len(d.routers); j++ {
			if err := d.routers[i].connect(d.routers[j]); err != nil {
				return nil, err
			}
		}
	}

	d.masc = masc.NewNode(masc.NodeConfig{
		Domain:     cfg.ID,
		Clock:      n.cfg.Clock,
		Rand:       rand.New(&lazySource{seed: seedBase + 1}),
		WaitPeriod: n.cfg.MASCWait,
		TopLevel:   cfg.TopLevel,
		Obs:        n.cfg.Observer,
		Send: func(to wire.DomainID, msg wire.Message) {
			n.mascDeliver(cfg.ID, to, msg)
		},
		OnWon:  d.onRangeWon,
		OnLost: d.onRangeLost,
	})
	mserver, err := maas.NewServer(maas.Config{
		Clock: n.cfg.Clock,
		Rand:  rand.New(&lazySource{seed: seedBase + 2}),
		OnDemand: func(need uint64) {
			d.masc.RequestSpace(need, masc.DefaultStrategy().ClaimLifetime)
		},
	})
	if err != nil {
		return nil, err
	}
	d.maas = mserver

	// Originate the domain's unicast prefix so sources resolve.
	hasHost := cfg.HostPrefix.Valid() && cfg.HostPrefix.Len > 0
	if hasHost {
		rt := wire.Route{Prefix: cfg.HostPrefix, Origin: cfg.ID}
		d.routers[0].bgp.Originate(wire.TableUnicast, rt)
	}

	n.mu.Lock()
	n.domains[cfg.ID] = d
	if hasHost {
		anchors := maps.Clone(*n.anchors.Load())
		anchors[cfg.ID] = cfg.HostPrefix.Base
		n.anchors.Store(&anchors)
	}
	n.mu.Unlock()
	return d, nil
}

// lazySource is rand.NewSource(seed) built on its first draw: most domains
// never claim or lease, and a built source holds 4.9 kB. It hands Int63,
// Uint64 and Seed to the built source, so its stream is rand.NewSource's.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) built() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.built().Int63() }
func (l *lazySource) Uint64() uint64  { return l.built().Uint64() }
func (l *lazySource) Seed(seed int64) { l.built().Seed(seed) }

// MASC returns the domain's MASC node.
func (d *Domain) MASC() *masc.Node { return d.masc }

// MAAS returns the domain's address allocation server.
func (d *Domain) MAAS() *maas.Server { return d.maas }

// Fabric returns the domain's interior fabric.
func (d *Domain) Fabric() *migp.Fabric { return d.fabric }

// Routers returns the domain's border routers.
func (d *Domain) Routers() []*Router {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*Router(nil), d.routers...)
}

// onRangeWon injects a won MASC range into BGP as a group route and makes
// it available to the MAAS — the §4.2 pipeline.
func (d *Domain) onRangeWon(p addr.Prefix, expires time.Time) {
	d.routers[0].bgp.Originate(wire.TableGRIB, wire.Route{
		Prefix:     p,
		Origin:     d.ID,
		ExpireUnix: uint64(expires.Unix()),
	})
	d.maas.AddRange(p, expires)
}

// onRangeLost withdraws the route and revokes the MAAS range.
func (d *Domain) onRangeLost(p addr.Prefix) {
	d.routers[0].bgp.WithdrawLocal(wire.TableGRIB, p)
	d.maas.RemoveRange(p)
}

// bestExit returns the domain's best exit border router for an address:
// the router whose table lookup resolves locally or to an external peer.
// Group addresses consult the G-RIB; unicast sources the M-RIB, else the
// unicast table (§2's RPF rule). Nothing originates into the M-RIB unless a
// caller makes the multicast topology incongruent, so sources normally
// resolve by unicast.
func (d *Domain) bestExit(a addr.Addr) wire.RouterID {
	if a.IsMulticast() {
		return d.exitVia(wire.TableGRIB, a)
	}
	if id := d.exitVia(wire.TableMRIB, a); id != 0 {
		return id
	}
	return d.exitVia(wire.TableUnicast, a)
}

// exitVia is bestExit in one table; 0 when no border router has an exit.
func (d *Domain) exitVia(table wire.Table, a addr.Addr) wire.RouterID {
	for _, r := range d.routers {
		if e, ok := r.bgp.Lookup(table, a); ok && (e.Local || !r.isInternal(e.NextHop)) {
			return r.ID
		}
	}
	return 0
}

// NewGroup leases a multicast address from the domain's MAAS, making this
// domain the group's root domain. When the MAAS has no space it asks MASC
// and the caller should retry after the waiting period elapses.
func (d *Domain) NewGroup(lifetime time.Duration) (maas.Lease, error) {
	l, err := d.maas.Lease(lifetime)
	if err == nil && d.net.cfg.Observer != nil {
		d.net.cfg.Observer.Emit(obs.Event{Kind: obs.MAASLease, Domain: d.ID, Group: l.Addr})
	}
	return l, err
}

// Join subscribes an interior host (at interior node `at`) to group g.
func (d *Domain) Join(g addr.Addr, at migp.Node) { d.fabric.HostJoin(g, at) }

// Leave unsubscribes an interior host.
func (d *Domain) Leave(g addr.Addr, at migp.Node) { d.fabric.HostLeave(g, at) }

// Send originates a multicast packet from an interior host. Senders need
// not be members (§3). Every member's Delivery whose bytes match payload
// holds payload itself rather than a copy of it.
func (d *Domain) Send(g addr.Addr, src addr.Addr, payload string, at migp.Node) {
	d.net.frameMu.Lock()
	d.net.sent = payload
	d.net.frameMu.Unlock()
	d.fabric.SendFromHost(at, &wire.Data{
		Group:   g,
		Source:  src,
		TTL:     32,
		Payload: []byte(payload),
	})
}

// HostAddr returns the i-th host address in the domain's unicast prefix.
func (d *Domain) HostAddr(i int) addr.Addr {
	return d.hostPrefix.Base + addr.Addr(i+1)
}

// Received returns the log of interior member deliveries.
func (d *Domain) Received() []Delivery {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Delivery(nil), d.received...)
}

// ClearReceived empties the delivery log. It keeps the log's array, so a
// log refilled to the same length does not grow it again.
func (d *Domain) ClearReceived() {
	d.mu.Lock()
	defer d.mu.Unlock()
	clear(d.received)
	d.received = d.received[:0]
}
