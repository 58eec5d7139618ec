package experiments

import (
	"math/rand"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/harness"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/topology"
	"mascbgmp/internal/trees"
)

// Fig4Config parameterizes the tree-quality comparison of §5.4: "Our
// topology of 3326 nodes was derived from a dump of the BGP routing tables
// ... We studied the variation in path length from a source selected
// randomly to all the receivers of the group as the group size was
// increased from 1 to 1000."
//
// The original BGP-dump topology is unavailable; the synthetic ASGraph
// generator stands in (see DESIGN.md §2).
type Fig4Config struct {
	Domains      int // paper: 3326
	ExtraPeering int // extra peering links beyond the provider tree
	Seed         int64
	// GroupSizes lists the receiver counts to sample (the paper's x axis,
	// 1..1000).
	GroupSizes []int
	// Trials is the number of (source, receiver-set) draws per size.
	Trials int
	// RandomRoot forces the bidirectional tree's root to a random domain
	// instead of the group initiator's domain — the root-placement
	// ablation (§5.1 argues initiator rooting; this measures the cost of
	// getting it wrong).
	RandomRoot bool
	// Obs observes the tree construction and sampling: one bgmp.join per
	// receiver attached, one bgmp.prune per receiver at trial teardown,
	// and data.forwarded/data.delivered for the sampled paths. Nil
	// disables observation.
	Obs *obs.Observer
}

// DefaultFig4Config returns parameters matching the paper's setup.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Domains:      3326,
		ExtraPeering: 350,
		Seed:         1998,
		GroupSizes:   []int{1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		Trials:       5,
	}
}

// Fig4Point is one x-axis point of Figure 4: path-length overhead ratios
// relative to the shortest-path tree (SPT = 1.0), averaged over trials.
type Fig4Point struct {
	Receivers int
	UniAvg    float64
	UniMax    float64
	BidirAvg  float64
	BidirMax  float64
	HybridAvg float64
	HybridMax float64
	// TreeSize is the mean number of on-tree domains (forwarding-state
	// footprint).
	TreeSize float64
}

// RunFig4 runs the path-length comparison and returns one point per group
// size. Deterministic for a given config: each group size draws from its
// own (Seed, size index)-derived rng.
func RunFig4(cfg Fig4Config) []Fig4Point {
	g := topology.ASGraph(cfg.Domains, cfg.ExtraPeering, cfg.Seed)
	out := make([]Fig4Point, 0, len(cfg.GroupSizes))
	for i, size := range cfg.GroupSizes {
		rng := rand.New(rand.NewSource(harness.TrialSeed(cfg.Seed+7, i)))
		out = append(out, fig4Size(cfg, g, size, rng))
	}
	return out
}

// fig4Size measures one x-axis point (one group size) of Figure 4 with the
// given per-size rng.
func fig4Size(cfg Fig4Config, g *topology.Graph, size int, rng *rand.Rand) Fig4Point {
	pt := Fig4Point{Receivers: size}
	var uniSum, bidirSum, hybridSum, treeSum float64
	samples := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		receivers := pickDistinct(rng, cfg.Domains, size)
		src := topology.DomainID(rng.Intn(cfg.Domains))

		// BGMP root: the group initiator's domain — the first
		// receiver, which got the group address from its local MAAS
		// (§5.1). The ablation forces a random third-party root.
		root := receivers[0]
		if cfg.RandomRoot {
			root = topology.DomainID(rng.Intn(cfg.Domains))
		}
		bidirTree := trees.NewShared(g, root, receivers)

		// PIM-SM RP: hash the group over all domains — effectively a
		// random, often third-party, domain (§5.1).
		group := rng.Uint32()
		rp := migp.HashGroup(addrOf(group), g.NumDomains())
		uniTree := trees.NewShared(g, rp, receivers)

		// One span per sampled group: the tree build plus its delivery
		// sampling (timestamps stay zero — Fig 4 has no event clock — but
		// the span forest still maps groups to their join/prune events).
		sp := cfg.Obs.Tracer().Begin(obs.SpanMemberJoin, obs.Event{
			Group: addrOf(group), Count: uint64(len(receivers))})
		if cfg.Obs != nil {
			cfg.Obs.Emit(obs.Event{Kind: obs.BGMPJoin,
				Group: addrOf(group), Count: uint64(len(receivers))})
		}
		distSrc, parentSrc := g.BFS(src)
		treeSum += float64(bidirTree.Size())
		var delivered, hops uint64
		for _, m := range receivers {
			if m == src || distSrc[m] <= 0 {
				continue
			}
			spt := float64(distSrc[m])
			uni := uniTree.UniLen(distSrc, m)
			bidir := bidirTree.BidirLen(src, m)
			hybrid := bidirTree.HybridLen(src, distSrc, parentSrc, m)
			if uni < 0 || bidir < 0 || hybrid < 0 {
				continue
			}
			samples++
			delivered++
			hops += uint64(bidir)
			ru, rb, rh := float64(uni)/spt, float64(bidir)/spt, float64(hybrid)/spt
			uniSum += ru
			bidirSum += rb
			hybridSum += rh
			if ru > pt.UniMax {
				pt.UniMax = ru
			}
			if rb > pt.BidirMax {
				pt.BidirMax = rb
			}
			if rh > pt.HybridMax {
				pt.HybridMax = rh
			}
		}
		if cfg.Obs != nil {
			if hops > 0 {
				cfg.Obs.Emit(obs.Event{Kind: obs.DataForwarded,
					Group: addrOf(group), Count: hops})
			}
			if delivered > 0 {
				cfg.Obs.Emit(obs.Event{Kind: obs.DataDelivered,
					Group: addrOf(group), Count: delivered})
			}
			// Trial teardown: every receiver leaves the tree.
			cfg.Obs.Emit(obs.Event{Kind: obs.BGMPPrune,
				Group: addrOf(group), Count: uint64(len(receivers))})
		}
		sp.End()
	}
	if samples > 0 {
		pt.UniAvg = uniSum / float64(samples)
		pt.BidirAvg = bidirSum / float64(samples)
		pt.HybridAvg = hybridSum / float64(samples)
	}
	pt.TreeSize = treeSum / float64(cfg.Trials)
	return pt
}

// pickDistinct draws k distinct domain IDs.
func pickDistinct(rng *rand.Rand, n, k int) []topology.DomainID {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]topology.DomainID, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, topology.DomainID(v))
		}
	}
	return out
}

// addrOf widens a random value into a multicast group address for RP
// hashing.
func addrOf(v uint32) addr.Addr { return addr.Addr(0xe0000000 | v&0x0fffffff) }
