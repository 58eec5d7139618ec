package core

import (
	"fmt"
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/faultinject"
	"mascbgmp/internal/liveness"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/simclock"
	"mascbgmp/internal/wire"
)

// Chaos experiment (cmd/chaossim): the paper's stability argument (§3) and
// tree-repair machinery (§5.4) exercised under injected failure. A small
// three-domain internetwork with a redundant path runs with session
// supervision enabled while the fault plane drops data and keepalives at a
// swept loss rate and crashes one border router; the experiment measures
// the delivery ratio under loss, the sim-time to reroute onto the
// surviving path after the crash, and the sim-time to reconverge onto the
// direct path after the restart. Everything is driven by simclock.Sim and
// seeded rand, so a given config yields byte-identical obs snapshots.
//
// This lives in core (not internal/experiments) because it drives the full
// Network stack — sessions, fault plane, BGMP repair — and experiments may
// not import core (layering: experiments → core).

// ChaosConfig parameterizes RunChaos.
type ChaosConfig struct {
	// Seed drives the fault plane and the network's randomized choices.
	Seed int64
	// LossRates is the swept per-message drop probability applied to the
	// data and keepalive classes (control messages ride reliably, as TCP
	// peerings would).
	LossRates []float64
	// HoldTime / ReconnectBackoff configure session supervision
	// (Config.HoldTime, Config.ReconnectBackoff).
	HoldTime         time.Duration
	ReconnectBackoff time.Duration
	// Liveness enables the BFD-style fast detector (Config.Liveness) on
	// the supervised sessions; hold timers stay the fallback. The loss
	// sweep does not drop liveness probes (only data and keepalives), so
	// the fast detector measures pure detection latency, not loss
	// robustness.
	Liveness bool
	// LivenessFloor / LivenessMultiplier tune the detector; zero values
	// take the liveness package defaults (100ms floor, ×3 multiplier).
	LivenessFloor      time.Duration
	LivenessMultiplier int
	// CrashFor is how long the crashed border router stays down.
	CrashFor time.Duration
	// Groups is the number of multicast groups rooted in the source
	// domain and joined by both receiver domains.
	Groups int
	// Packets is the number of probe packets per group sent during the
	// lossy steady-state phase (one second apart).
	Packets int
	// MASCWait shortens the 48-hour claim waiting period so a sweep
	// stays cheap; the claim protocol is not under test here.
	MASCWait time.Duration
	// Obs, when set, receives every protocol and fault event of the whole
	// sweep; same-seed sweeps produce byte-identical snapshots. Nil uses
	// an internal observer.
	Obs *obs.Observer
	// DataPlane selects the forwarding backend under test
	// (core.Config.DataPlane); empty runs the default shared trees. The
	// stateless backends recover through BGP route withdrawal instead of
	// BGMP tree repair, so the reconvergence check follows the G-RIB.
	DataPlane string
	// Trace attaches a per-point deterministic tracer: every point's
	// detect→failover→reroute chain is recorded as a span tree and
	// returned in ChaosPoint.Spans. Point tracers are seeded from (Seed,
	// point index), so same-seed sweeps yield byte-identical traces.
	Trace bool
}

// DefaultChaosConfig returns the sweep recorded in EXPERIMENTS.md.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:             1998,
		LossRates:        []float64{0, 0.05, 0.10, 0.20},
		HoldTime:         30 * time.Second,
		ReconnectBackoff: 15 * time.Second,
		CrashFor:         5 * time.Minute,
		Groups:           3,
		Packets:          50,
		MASCWait:         time.Hour,
	}
}

// ChaosPoint is one loss rate's measurements.
type ChaosPoint struct {
	Loss float64
	// Sent and Delivered count lossy-phase probe deliveries (Packets ×
	// Groups × receiver domains attempted); DeliveryRatio is their
	// quotient.
	Sent, Delivered int
	DeliveryRatio   float64
	// Detect is the sim-time from the border-router crash until a
	// supervised session involving it was declared down (the first
	// SessionDown, whichever detector fired).
	Detect time.Duration
	// Reroute is the sim-time from the border-router crash until every
	// group delivers over the surviving transit path again (detection +
	// BGMP repair).
	Reroute time.Duration
	// Reconverge is the sim-time from the router's restart until every
	// group is re-attached on the direct path and the restarted router
	// has relearned its tree state (backoff retry + BGP resync + rejoin).
	Reconverge time.Duration
	// SessionDowns / SessionUps count supervision events at this point.
	SessionDowns, SessionUps uint64
	// Recovered reports full end-state health: faults cleared, all
	// groups on the direct path and delivering to every receiver.
	Recovered bool
	// Spans holds the point's recorded trace (ChaosConfig.Trace), sorted
	// deterministically; render with obs.ChromeTrace or obs.RenderTree.
	Spans []obs.SpanRecord `json:"-"`
}

// The probing granularity of the reroute/reconverge clocks: the recorded 5s
// under hold timers, 250ms with the liveness detector so sub-second
// recovery resolves.
const (
	chaosStep         = 5 * time.Second
	chaosLivenessStep = 250 * time.Millisecond
)

// chaosDemandAfter is the stable rounds before the liveness detector
// quiesces, low enough that the demand path is what the crash exercises.
const chaosDemandAfter = 10

// RunChaos runs the failure-recovery sweep and returns one point per loss
// rate. Deterministic for a given config. Every point builds its own
// network with faults seeded from (Seed, point index) and emits into its
// own observer (scoping the per-point session counters), which forwards
// every event to cfg.Obs.
func RunChaos(cfg ChaosConfig) ([]ChaosPoint, error) {
	ob := cfg.Obs
	if ob == nil {
		ob = obs.NewObserver()
	}
	point := func(i int, loss float64) (ChaosPoint, error) {
		pointObs := obs.NewObserver()
		cancel := pointObs.Subscribe(ob.Emit)
		defer cancel()
		var tracer *obs.Tracer
		if cfg.Trace {
			// Per-point tracer: the point networks are single-threaded
			// (Synchronous), so span IDs allocate in a deterministic
			// order for a given (Seed, point) pair.
			tracer = obs.NewTracer(cfg.Seed + 104729*int64(i))
			pointObs.SetTracer(tracer)
		}
		// The flight recorder retains each router's recent events; a
		// failed point dumps them with the error.
		fr := obs.NewFlightRecorder(64)
		pointObs.Subscribe(fr.Record)
		pt, err := runChaosPoint(cfg, int64(i), loss, pointObs)
		if err != nil {
			return ChaosPoint{}, fmt.Errorf("chaos: loss %.2f: %w\nflight recorder:\n%s", loss, err, fr.Dump())
		}
		pt.Spans = tracer.Records()
		return pt, nil
	}
	out := make([]ChaosPoint, 0, len(cfg.LossRates))
	for i, loss := range cfg.LossRates {
		pt, err := point(i, loss)
		if err != nil {
			return nil, err
		}
		// Fold the point's recovery latencies into the sweep observer's
		// histograms. BENCH_chaos percentiles come from these.
		ob.Histogram(obs.HistDetect, 0, 0).Observe(uint64(pt.Detect))
		ob.Histogram(obs.HistReroute, 0, 0).Observe(uint64(pt.Reroute))
		ob.Histogram(obs.HistReconverge, 0, 0).Observe(uint64(pt.Reconverge))
		out = append(out, pt)
	}
	return out, nil
}

// chaosNet is the experiment's fixed topology: source domain 1 (routers
// 11, 12), transit domain 2 (21, 22), receiver domain 3 (31), with the
// direct link 12–31 and the redundant path 11–21, 22–31. Router 12 is the
// crash victim; the transit path is what repair falls back on.
type chaosNet struct {
	n         *Network
	clk       *simclock.Sim
	plane     *faultinject.Plane
	groups    []addr.Addr
	src       addr.Addr
	dataPlane string
}

func buildChaosNet(cfg ChaosConfig, pointSeed int64, ob *obs.Observer) (*chaosNet, error) {
	clk := simclock.NewSim(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	plane, err := faultinject.New(faultinject.Config{
		Clock: clk,
		Rand:  rand.New(rand.NewSource(cfg.Seed + 7919*pointSeed)),
		Obs:   ob,
	})
	if err != nil {
		return nil, err
	}
	var lv *liveness.Params
	if cfg.Liveness {
		lv = &liveness.Params{
			Floor:       cfg.LivenessFloor,
			Multiplier:  cfg.LivenessMultiplier,
			DemandAfter: chaosDemandAfter,
		}
	}
	n, err := NewNetwork(Config{
		Clock:            clk,
		Seed:             cfg.Seed,
		MASCWait:         cfg.MASCWait,
		Synchronous:      true,
		Observer:         ob,
		Faults:           plane,
		HoldTime:         cfg.HoldTime,
		ReconnectBackoff: cfg.ReconnectBackoff,
		Liveness:         lv,
		DataPlane:        cfg.DataPlane,
	})
	if err != nil {
		return nil, err
	}
	for _, dc := range []DomainConfig{
		{ID: 1, Routers: []wire.RouterID{11, 12}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 1, 0, 0), Len: 16}},
		{ID: 2, Routers: []wire.RouterID{21, 22}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 2, 0, 0), Len: 16}},
		{ID: 3, Routers: []wire.RouterID{31}, Protocol: migp.DVMRP(), TopLevel: true,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, 3, 0, 0), Len: 16}},
	} {
		if _, err := n.AddDomain(dc); err != nil {
			return nil, err
		}
	}
	for _, l := range [][2]wire.RouterID{{11, 21}, {12, 31}, {22, 31}} {
		if err := n.Link(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	for _, p := range [][2]wire.DomainID{{1, 2}, {1, 3}, {2, 3}} {
		if err := n.MASCPeerSiblings(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	if !n.Domain(1).MASC().RequestSpace(1<<12, 90*24*time.Hour) {
		return nil, fmt.Errorf("MASC claim selection failed")
	}
	clk.RunFor(cfg.MASCWait + time.Hour)

	cn := &chaosNet{n: n, clk: clk, plane: plane, src: n.Domain(1).HostAddr(1), dataPlane: cfg.DataPlane}
	for g := 0; g < cfg.Groups; g++ {
		lease, err := n.Domain(1).NewGroup(30 * 24 * time.Hour)
		if err != nil {
			return nil, err
		}
		cn.groups = append(cn.groups, lease.Addr)
		n.Domain(2).Join(lease.Addr, 0)
		n.Domain(3).Join(lease.Addr, 0)
	}
	return cn, nil
}

// probe sends one packet per group and counts deliveries at the receiver
// domains; ok means every group reached every receiver.
func (cn *chaosNet) probe() (delivered, sent int, ok bool) {
	cn.n.Domain(2).ClearReceived()
	cn.n.Domain(3).ClearReceived()
	for _, g := range cn.groups {
		cn.n.Domain(1).Send(g, cn.src, "probe", 0)
	}
	sent = 2 * len(cn.groups)
	delivered = len(cn.n.Domain(2).Received()) + len(cn.n.Domain(3).Received())
	return delivered, sent, delivered == sent
}

// directPath reports whether every group is attached to the root domain
// over the direct link again. Under shared trees that means the receiver's
// tree parent is the direct peer and the restarted router carries its tree
// state; the stateless backends hold no per-group state, so the equivalent
// condition is the receiver's G-RIB best route to the group pointing at
// the direct peer again (tunnels and bitstring copies follow the RIBs).
func (cn *chaosNet) directPath() bool {
	stateless := cn.dataPlane != "" && cn.dataPlane != dataplane.SharedTreeName
	for _, g := range cn.groups {
		if stateless {
			e, ok := cn.n.Router(31).BGP().Lookup(wire.TableGRIB, g)
			if !ok || e.NextHop != 12 {
				return false
			}
			continue
		}
		parent, _, ok := cn.n.Router(31).BGMP().GroupEntry(g)
		if !ok || parent != bgmp.PeerTarget(12) {
			return false
		}
		if !cn.n.Router(12).BGMP().HasGroupState(g) {
			return false
		}
	}
	return true
}

func runChaosPoint(cfg ChaosConfig, pointSeed int64, loss float64, ob *obs.Observer) (ChaosPoint, error) {
	cn, err := buildChaosNet(cfg, pointSeed, ob)
	if err != nil {
		return ChaosPoint{}, err
	}
	pt := ChaosPoint{Loss: loss}
	downs0 := ob.Snapshot().Total(obs.SessionDown)
	ups0 := ob.Snapshot().Total(obs.SessionUp)

	if _, _, ok := cn.probe(); !ok {
		return ChaosPoint{}, fmt.Errorf("baseline delivery failed before fault injection")
	}

	// Phase 1 — lossy steady state: data and keepalives drop at the swept
	// rate; control stays reliable (the TCP peering assumption).
	cn.plane.SetDefault(faultinject.LinkFaults{
		Drop:    loss,
		Classes: faultinject.MaskData | faultinject.MaskKeepalive,
	})
	for p := 0; p < cfg.Packets; p++ {
		d, s, _ := cn.probe()
		pt.Delivered += d
		pt.Sent += s
		cn.clk.RunFor(time.Second)
	}
	if pt.Sent > 0 {
		pt.DeliveryRatio = float64(pt.Delivered) / float64(pt.Sent)
	}

	// Phase 2 — crash the direct-path border router; measure the time to
	// detection (first SessionDown involving the victim, whichever
	// detector fired) and the time until delivery works again over
	// transit (detection + repair). Probes themselves are lossy, so a
	// step may fail on drops alone — the clock keeps stepping until one
	// full round gets through.
	step := chaosStep
	if cfg.Liveness {
		step = chaosLivenessStep
	}
	crashAt := cn.clk.Now()
	detected := false
	cancel := ob.Subscribe(func(e obs.Event) {
		if !detected && e.Kind == obs.SessionDown && (e.Router == 12 || e.Peer == 12) {
			detected = true
			pt.Detect = cn.clk.Now().Sub(crashAt)
		}
	})
	defer cancel()
	cn.plane.CrashPeerFor(12, cfg.CrashFor)
	rerouteBudget := cfg.HoldTime + 2*time.Minute
	for {
		if _, _, ok := cn.probe(); ok {
			pt.Reroute = cn.clk.Now().Sub(crashAt)
			break
		}
		if cn.clk.Now().Sub(crashAt) > rerouteBudget {
			return ChaosPoint{}, fmt.Errorf("no reroute within %v of crash", rerouteBudget)
		}
		cn.clk.RunFor(step)
	}

	// Phase 3 — run past the restart; measure time from restart until all
	// groups are back on the direct path (backoff reconnect + resync +
	// orphan rejoin).
	restartAt := crashAt.Add(cfg.CrashFor)
	if remaining := restartAt.Sub(cn.clk.Now()); remaining > 0 {
		cn.clk.RunFor(remaining)
	}
	reconvergeBudget := cfg.HoldTime + 10*cfg.ReconnectBackoff + 2*time.Minute
	for !cn.directPath() {
		if cn.clk.Now().Sub(restartAt) > reconvergeBudget {
			return ChaosPoint{}, fmt.Errorf("no reconvergence within %v of restart", reconvergeBudget)
		}
		cn.clk.RunFor(step)
	}
	pt.Reconverge = cn.clk.Now().Sub(restartAt)

	// End state: faults off, everything healthy.
	cn.plane.SetDefault(faultinject.LinkFaults{})
	cn.clk.RunFor(time.Minute)
	_, _, ok := cn.probe()
	pt.Recovered = ok && cn.directPath()

	if !detected {
		// Even the stateless backends (which reroute on the iBGP
		// withdrawal before any session expires) must have detected the
		// dead session by the end of the outage.
		return ChaosPoint{}, fmt.Errorf("no SessionDown for the crashed router during the outage")
	}

	s := ob.Snapshot()
	pt.SessionDowns = s.Total(obs.SessionDown) - downs0
	pt.SessionUps = s.Total(obs.SessionUp) - ups0
	return pt, nil
}
