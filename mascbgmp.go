// Package mascbgmp is a Go implementation of the MASC/BGMP architecture
// for inter-domain multicast routing (Kumar et al., SIGCOMM 1998).
//
// The architecture has two complementary protocols plus the substrates
// they rely on:
//
//   - MASC (Multicast Address-Set Claim) dynamically allocates multicast
//     address ranges to domains through a hierarchical listen-and-claim
//     mechanism with collision detection.
//   - BGMP (Border Gateway Multicast Protocol) builds inter-domain
//     bidirectional shared trees rooted at each group's root domain — the
//     domain whose MASC allocation covers the group address — with
//     optional source-specific branches.
//   - BGP-lite distributes the MASC allocations as group routes (the
//     G-RIB) and the domains' host prefixes as unicast routes. RPF reads
//     the M-RIB first and falls back to unicast; the M-RIB is left empty
//     because no world here has an incongruent multicast topology.
//   - MAAS servers lease individual group addresses to applications.
//   - MIGPs (DVMRP, PIM-SM, PIM-DM, CBT, MOSPF) run inside each domain.
//   - Pluggable data planes let the same control plane forward through
//     BGMP shared trees (default), BIER-style bitstrings, or map-and-encap
//     tunnels (Config.DataPlane; see DESIGN.md §11).
//
// This package is the public facade: it re-exports the network-assembly
// API (build domains, link border routers, run the protocols in process —
// over loopback TCP or deterministic synchronous dispatch), the address
// types, and the experiment harnesses that regenerate the paper's
// evaluation figures. It exports what cmd/, examples/ and the root tests
// use and no more; the methods of the re-exported types reach the rest
// (Network.Domain, Router.DataPlane, Observer.Snapshot, ...). The
// implementation lives in internal/ packages, one per subsystem; see
// DESIGN.md for the system inventory.
//
// # Quick start
//
//	net, err := mascbgmp.NewNetwork(mascbgmp.Config{Seed: 1, Synchronous: true,
//		Clock: mascbgmp.NewSimClock(time.Now())})
//	net.AddDomain(mascbgmp.DomainConfig{ID: 1, Routers: []mascbgmp.RouterID{11},
//		Protocol: mascbgmp.NewDVMRP(), TopLevel: true})
//	net.AddDomain(mascbgmp.DomainConfig{ID: 2, Routers: []mascbgmp.RouterID{21},
//		Protocol: mascbgmp.NewDVMRP()})
//	net.Link(11, 21)
//	net.MASCPeerParentChild(1, 2)
//	// claim space, lease a group, join, send — see examples/quickstart.
package mascbgmp

import (
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgp"
	"mascbgmp/internal/core"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/experiments"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/wire"
)

// Core network-assembly types.
type (
	// Network is an in-process internetwork of MASC/BGMP domains.
	Network = core.Network
	// Config parameterizes a Network.
	Config = core.Config
	// DomainConfig describes a domain to add.
	DomainConfig = core.DomainConfig
	// World is an internetwork as a value — domains, links, MASC
	// peerings; World.Build makes it on a new Network.
	World = core.World
	// ConfigError reports an invalid Config field combination from
	// Config.Validate / NewNetwork.
	ConfigError = core.ConfigError
)

// NewNetwork returns an empty network, or a *ConfigError when cfg fails
// Config.Validate.
func NewNetwork(cfg Config) (*Network, error) { return core.NewNetwork(cfg) }

// PaperWorld returns the internetwork of the paper's Figures 1 and 3(b),
// domains A..H as IDs 1..8, with the Fig 3(b) F2–A4 link last.
func PaperWorld() World { return core.PaperWorld() }

// ErrNotLinked is wrapped by Network.Unlink when no such peering exists.
var ErrNotLinked = core.ErrNotLinked

// Observability types. Pass a NewObserver() as Config.Observer (or wire it
// into the experiment configs) to count protocol events — MASC claims and
// collisions, BGP route churn, BGMP joins/prunes and repairs, data-plane
// hops and deliveries — and to subscribe to the live event stream. Attach
// a NewTracer (Observer.SetTracer) to record protocol causality as span
// trees (DESIGN.md §7); everything derives from the deterministic seed
// stream and the sim clock: same seed, same spans.
type (
	// Observer fans protocol events out to subscribers and the metrics
	// registry. The zero of everything: a nil *Observer disables
	// observation at no cost.
	Observer = obs.Observer
	// Event is one observed protocol event.
	Event = obs.Event
	// Tracer allocates span IDs from a seeded deterministic stream and
	// records finished spans. A nil *Tracer disables tracing at no cost.
	Tracer = obs.Tracer
	// SpanRecord is one finished span as recorded by a Tracer.
	SpanRecord = obs.SpanRecord
	// Hist names one histogram; Snapshot.Hist reads it.
	Hist = obs.Hist
)

// NewObserver returns an Observer with an empty counter registry.
func NewObserver() *Observer { return obs.NewObserver() }

// NewTracer returns a Tracer whose span IDs derive from seed.
func NewTracer(seed int64) *Tracer { return obs.NewTracer(seed) }

// ChromeTrace renders spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto).
func ChromeTrace(recs []SpanRecord) []byte { return obs.ChromeTrace(recs) }

// EventMASCClaim is the kind of a MASC claim announcement, for subscribers
// filtering the stream; the other kinds are Event.Kind.String() names.
const EventMASCClaim = obs.MASCClaim

// The histograms chaossim reports.
const (
	HistDetect     = obs.HistDetect
	HistReroute    = obs.HistReroute
	HistReconverge = obs.HistReconverge
)

// Identifier and address types.
type (
	// DomainID identifies a domain.
	DomainID = wire.DomainID
	// RouterID identifies a border router.
	RouterID = wire.RouterID
	// Addr is an IPv4 address.
	Addr = addr.Addr
	// Prefix is a CIDR address range.
	Prefix = addr.Prefix
)

// MulticastSpace is the IPv4 multicast address space 224.0.0.0/4.
var MulticastSpace = addr.MulticastSpace

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return addr.ParseAddr(s) }

// ParsePrefix parses CIDR notation such as "224.0.1.0/24".
func ParsePrefix(s string) (Prefix, error) { return addr.ParsePrefix(s) }

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix { return addr.MustParsePrefix(s) }

// Routing-policy plumbing (§4.2: multicast policies through selective
// propagation of group routes).
type (
	// ExportFilter decides whether a route may be advertised to a
	// neighbor.
	ExportFilter = bgp.ExportFilter
	// Table selects a logical routing table (unicast, M-RIB, G-RIB).
	Table = wire.Table
)

// TableGRIB selects the group-route table.
const TableGRIB = wire.TableGRIB

// CustomerExportFilter implements the canonical provider-customer policy:
// toward providers and peers, advertise only routes originated by the
// domain itself or its customers; toward customers, advertise everything.
func CustomerExportFilter(self DomainID, customers map[DomainID]bool) ExportFilter {
	return bgp.CustomerExportFilter(self, customers)
}

// TableExportFilter restricts a filter to one table.
func TableExportFilter(table Table, f ExportFilter) ExportFilter {
	return bgp.TableExportFilter(table, f)
}

// Strategy holds the MASC claim-algorithm tunables (§4.3.3): target
// occupancy, prefix-count target, claim lifetime.
type Strategy = masc.Strategy

// DefaultStrategy returns the paper's parameters (75 % occupancy target,
// at most two active prefixes, 30-day claims).
func DefaultStrategy() Strategy { return masc.DefaultStrategy() }

// SimClock is a deterministic simulated clock.
type SimClock = simclock.Sim

// NewSimClock returns a simulated clock starting at the given instant.
func NewSimClock(start time.Time) *SimClock { return simclock.NewSim(start) }

// MIGP is an interior-protocol delivery model. The architecture is
// MIGP-independent and each domain picks one (§3).
type MIGP = *migp.Protocol

// NewDVMRP returns a DVMRP interior protocol (flood-and-prune, strict RPF).
func NewDVMRP() MIGP { return migp.DVMRP() }

// NewPIMSM returns a PIM Sparse-Mode interior protocol with the given SPT
// switchover threshold (0 keeps receivers on the RP tree).
func NewPIMSM(sptThreshold int) MIGP { return migp.PIMSM(sptThreshold) }

// NewPIMDM returns a PIM Dense-Mode interior protocol whose prune state
// expires after pruneLife packets (0: never).
func NewPIMDM(pruneLife int) MIGP { return migp.PIMDM(pruneLife) }

// NewCBT returns a Core Based Trees interior protocol.
func NewCBT() MIGP { return migp.CBT() }

// NewMOSPF returns a Multicast OSPF interior protocol.
func NewMOSPF() MIGP { return migp.MOSPF() }

// Pluggable data-plane backends (DESIGN.md §11). Config.DataPlane selects
// the forwarding plane every border router runs: the default BGMP shared
// trees, BIER-style bitstring forwarding, or map-and-encap tunneling to
// the MASC-derived root domain. All three share the control plane (BGP-lite
// RIBs, MASC allocation, MIGP interiors) and deliver to identical receiver
// sets; they trade per-router state against path stretch and per-packet
// header overhead.

// DataPlaneSharedTree names the default backend.
const DataPlaneSharedTree = dataplane.SharedTreeName

// DataPlaneNames returns the valid backend names — the Config.DataPlane
// values and the cmds' -backend arguments — in presentation order.
func DataPlaneNames() []string { return dataplane.Names() }

// ValidDataPlane reports whether name identifies a data-plane backend.
func ValidDataPlane(name string) bool { return dataplane.ValidName(name) }

// Experiment harness types (regenerate the paper's figures).
type (
	// Fig2Config parameterizes the §4.3.3 allocation simulation.
	Fig2Config = experiments.Fig2Config
	// Fig2Result is its outcome.
	Fig2Result = experiments.Fig2Result
	// Fig4Config parameterizes the §5.4 tree-quality comparison.
	Fig4Config = experiments.Fig4Config
	// Fig4Point is one x-axis point of Figure 4.
	Fig4Point = experiments.Fig4Point
	// Graph is an inter-domain topology.
	Graph = topology.Graph
)

// DefaultFig2Config returns the paper's §4.3.3 simulation parameters
// (50 top-level domains × 50 children, 800 days).
func DefaultFig2Config() Fig2Config { return experiments.DefaultFig2Config() }

// RunFig2 runs the address-allocation simulation behind Figures 2(a) and
// 2(b). Deterministic for a given config.
func RunFig2(cfg Fig2Config) Fig2Result { return experiments.RunFig2(cfg) }

// DefaultFig4Config returns the paper's §5.4 comparison parameters
// (3326-domain topology, group sizes 1..1000).
func DefaultFig4Config() Fig4Config { return experiments.DefaultFig4Config() }

// RunFig4 runs the tree-quality comparison behind Figure 4.
func RunFig4(cfg Fig4Config) []Fig4Point { return experiments.RunFig4(cfg) }

// ASGraph synthesizes an AS-like inter-domain topology (the stand-in for
// the paper's BGP-dump topology; see DESIGN.md §2).
func ASGraph(n, extraPeering int, seed int64) *Graph {
	return topology.ASGraph(n, extraPeering, seed)
}

// Failure-recovery sweep (cmd/chaossim): a fault plane on every peering,
// session supervision with keepalives and hold timers, optionally the
// BFD-style liveness detector.
type (
	// ChaosConfig parameterizes the sweep.
	ChaosConfig = core.ChaosConfig
	// ChaosPoint is one loss rate's recovery measurements.
	ChaosPoint = core.ChaosPoint
)

// DefaultChaosConfig returns the failure-recovery sweep recorded in
// EXPERIMENTS.md.
func DefaultChaosConfig() ChaosConfig { return core.DefaultChaosConfig() }

// RunChaos runs the failure-recovery sweep: delivery ratio under loss,
// time-to-reroute after a crash, time-to-reconverge after the restart.
// Deterministic for a given config.
func RunChaos(cfg ChaosConfig) ([]ChaosPoint, error) { return core.RunChaos(cfg) }
