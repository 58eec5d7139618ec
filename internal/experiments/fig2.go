// Package experiments contains the harnesses that regenerate the paper's
// evaluation artifacts: Figure 2(a) address-space utilization, Figure 2(b)
// G-RIB size, and Figure 4 path-length overhead, plus the in-text
// steady-state numbers of §4.3.3 and §5.4. See DESIGN.md §4 for the
// experiment index.
package experiments

import (
	"container/heap"
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/masc"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// Fig2Config parameterizes the MASC claim-algorithm simulation of §4.3.3:
// "we simulated a network with 50 top-level domains, each with 50 child
// domains. Each child domain's allocation server requests blocks of 256
// addresses with a lifetime of 30 days for local usage. The inter-request
// times for each child domain are chosen uniformly and randomly from
// between 1 and 95 hours."
type Fig2Config struct {
	TopLevel    int           // paper: 50
	ChildrenPer int           // paper: 50
	Days        int           // paper: ~800
	BlockSize   uint64        // paper: 256
	BlockLife   time.Duration // paper: 30 days
	ReqMin      time.Duration // paper: 1 hour
	ReqMax      time.Duration // paper: 95 hours
	SampleEvery time.Duration // metric sampling period (e.g. 24h)
	Seed        int64
	// Strategy overrides the child-domain claim strategy; zero value uses
	// masc.DefaultStrategy (75 % occupancy target, ≤ 2 prefixes). Used by
	// the ablation benchmarks.
	Strategy masc.Strategy
	// Heterogeneous varies the topology and workload as the paper's
	// side experiment did ("We also examined more heterogeneous
	// topologies with similar results"): providers get between 20 % and
	// 180 % of ChildrenPer children, and children request blocks of 64,
	// 128, 256, or 512 addresses.
	Heterogeneous bool
	// Obs observes the allocation engines' protocol events (claims,
	// collisions, wins, renewals, releases, leases, and the mirrored BGP
	// route injections), scoped per provider domain. Nil disables
	// observation.
	Obs *obs.Observer
}

// DefaultFig2Config returns the paper's parameters.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		TopLevel:    50,
		ChildrenPer: 50,
		Days:        800,
		BlockSize:   256,
		BlockLife:   30 * 24 * time.Hour,
		ReqMin:      time.Hour,
		ReqMax:      95 * time.Hour,
		SampleEvery: 24 * time.Hour,
		Seed:        1998,
	}
}

// Fig2Sample is one point of the Figure 2 time series.
type Fig2Sample struct {
	Day float64
	// Utilization is the fraction of addresses claimed out of 224/4 that
	// are actually requested by allocation servers — Figure 2(a).
	Utilization float64
	// GRIBAvg and GRIBMax are the mean and maximum G-RIB sizes across
	// all domains — Figure 2(b).
	GRIBAvg float64
	GRIBMax int
	// GlobalPrefixes is the number of globally advertised (top-level,
	// aggregated) prefixes.
	GlobalPrefixes int
	// Demand and Claimed are absolute address counts.
	Demand  uint64
	Claimed uint64
}

// Fig2Result is the full simulation outcome.
type Fig2Result struct {
	Samples []Fig2Sample
	// Satisfied and Failed count block requests.
	Satisfied int
	Failed    int
	// LiveBlocks is the number of live block allocations at the end —
	// the paper's steady state has ≈ 37,500.
	LiveBlocks int
	// ChildStats aggregates expansion events over all child allocators.
	ChildStats masc.AllocStats
}

// SteadyState averages utilization and mean G-RIB size over the samples
// after afterDay (the startup transient), with the largest G-RIB seen in
// them. All zero when no sample is later than afterDay.
func (r Fig2Result) SteadyState(afterDay float64) (util, gribAvg float64, gribMax int) {
	n := 0
	for _, s := range r.Samples {
		if s.Day > afterDay {
			util += s.Utilization
			gribAvg += s.GRIBAvg
			gribMax = max(gribMax, s.GRIBMax)
			n++
		}
	}
	if n > 0 {
		util /= float64(n)
		gribAvg /= float64(n)
	}
	return util, gribAvg, gribMax
}

// event is a pending block request for one child.
type event struct {
	at    time.Time
	child int
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, event(x.(event))) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// RunFig2 runs the claim-algorithm simulation and returns the time series.
// The run is deterministic for a given config.
func RunFig2(cfg Fig2Config) Fig2Result {
	if cfg.Strategy == (masc.Strategy{}) {
		cfg.Strategy = masc.DefaultStrategy()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	// The trace plane (if the observer carries a tracer) timestamps claim
	// spans from the simulation's event clock, not wall time.
	simNow := start
	cfg.Obs.Tracer().SetNow(func() time.Time { return simNow })

	global := masc.NewLedger(addr.MulticastSpace)
	providers := make([]*masc.SpaceProvider, cfg.TopLevel)
	children := make([]*masc.BlockAllocator, 0, cfg.TopLevel*cfg.ChildrenPer)
	parentOf := make([]int, 0, cfg.TopLevel*cfg.ChildrenPer)
	blockSize := make([]uint64, 0, cfg.TopLevel*cfg.ChildrenPer)
	for i := range providers {
		providers[i] = masc.NewSpaceProvider(cfg.Strategy, global, rand.New(rand.NewSource(cfg.Seed+int64(i)+1)))
		// Scope events to the provider's domain; children share their
		// provider's scope so snapshots stay one row per top-level domain.
		providers[i].SetObserver(cfg.Obs, wire.DomainID(i+1))
		nc := cfg.ChildrenPer
		if cfg.Heterogeneous {
			// 20 %..180 % of the nominal child count, at least 1.
			nc = cfg.ChildrenPer*(20+rng.Intn(161))/100 + 1
		}
		for c := 0; c < nc; c++ {
			ba := masc.NewBlockAllocator(
				cfg.Strategy, providers[i].ChildLedger(),
				rand.New(rand.NewSource(cfg.Seed+int64(len(children))+1000)))
			ba.SetObserver(cfg.Obs, wire.DomainID(i+1))
			children = append(children, ba)
			parentOf = append(parentOf, i)
			bs := cfg.BlockSize
			if cfg.Heterogeneous {
				bs = cfg.BlockSize >> 2 << uint(rng.Intn(4)) // size/4 .. size*2
				if bs == 0 {
					bs = cfg.BlockSize
				}
			}
			blockSize = append(blockSize, bs)
		}
	}

	nextReq := func(now time.Time) time.Time {
		span := cfg.ReqMax - cfg.ReqMin
		return now.Add(cfg.ReqMin + time.Duration(rng.Int63n(int64(span)+1)))
	}

	var h eventHeap
	for c := range children {
		heap.Push(&h, event{at: nextReq(start), child: c})
	}

	res := Fig2Result{}
	nextSample := start.Add(cfg.SampleEvery)
	nextMaint := start.Add(24 * time.Hour)

	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		if ev.at.After(end) {
			break
		}
		simNow = ev.at
		// Periodic maintenance and sampling catch up to the event time.
		for !nextMaint.After(ev.at) {
			for _, p := range providers {
				p.Tick(nextMaint)
				p.ShedIdle()
			}
			nextMaint = nextMaint.Add(24 * time.Hour)
		}
		for !nextSample.After(ev.at) {
			res.Samples = append(res.Samples, sampleFig2(nextSample.Sub(start), providers, children, parentOf, nextSample))
			nextSample = nextSample.Add(cfg.SampleEvery)
		}

		child := children[ev.child]
		parent := providers[parentOf[ev.child]]
		bs := blockSize[ev.child]
		if _, ok := child.Request(bs, cfg.BlockLife, ev.at); ok {
			res.Satisfied++
		} else {
			// The child could not expand within the parent's space: the
			// parent claims more (possibly from 224/4) and the child
			// retries — the paper's bottom-up demand propagation (§4.3.1).
			need := child.Demand() + bs
			parent.EnsureRoom(need, ev.at)
			if _, ok := child.Request(bs, cfg.BlockLife, ev.at); ok {
				res.Satisfied++
			} else {
				res.Failed++
			}
		}
		heap.Push(&h, event{at: nextReq(ev.at), child: ev.child})
	}

	for i, c := range children {
		c.Tick(end)
		res.LiveBlocks += int(c.Demand() / blockSize[i])
		res.ChildStats.Doublings += c.Stats.Doublings
		res.ChildStats.ExtraClaims += c.Stats.ExtraClaims
		res.ChildStats.Replacements += c.Stats.Replacements
		res.ChildStats.Failures += c.Stats.Failures
		res.ChildStats.Releases += c.Stats.Releases
	}
	return res
}

// sampleFig2 computes one time-series point.
func sampleFig2(elapsed time.Duration, providers []*masc.SpaceProvider, children []*masc.BlockAllocator, parentOf []int, now time.Time) Fig2Sample {
	var demand, claimed uint64
	for _, c := range children {
		c.Tick(now)
		demand += c.Demand()
	}
	// Globally advertised prefixes: every top-level domain's aggregated
	// advertisement.
	global := 0
	childPrefixes := make([]int, len(providers)) // per provider: Σ child claims
	for _, p := range providers {
		global += len(p.AdvertisedPrefixes())
		claimed += p.Capacity()
	}
	perChildCount := make([]int, len(children))
	for i, c := range children {
		perChildCount[i] = len(c.Holdings())
		childPrefixes[parentOf[i]] += perChildCount[i]
	}

	// G-RIB sizes: top-level domain = global + its children's prefixes;
	// child domain = global + its siblings' prefixes.
	sum, max, count := 0, 0, 0
	note := func(v int) {
		sum += v
		count++
		if v > max {
			max = v
		}
	}
	for pi := range providers {
		note(global + childPrefixes[pi])
	}
	for i := range children {
		note(global + childPrefixes[parentOf[i]] - perChildCount[i])
	}

	s := Fig2Sample{
		Day:            elapsed.Hours() / 24,
		GRIBAvg:        float64(sum) / float64(count),
		GRIBMax:        max,
		GlobalPrefixes: global,
		Demand:         demand,
		Claimed:        claimed,
	}
	if claimed > 0 {
		s.Utilization = float64(demand) / float64(claimed)
	}
	return s
}
