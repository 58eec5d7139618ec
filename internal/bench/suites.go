package bench

import (
	"fmt"
	"time"

	"mascbgmp/internal/core"
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/experiments"
)

// builtins is the suite table, sorted by name (TestSuitesTable holds the
// order). Each trial re-runs the underlying experiment with the trial's
// derived seed, so the trials are independent samples of the same
// workload and the percentile spread is the seed-to-seed variance.
var builtins = []Suite{
	{
		Name: "chaos-detectors",
		Description: "the chaos-recovery crash measured under both failure detectors: " +
			"hold timers alone vs the BFD-style liveness plane with precomputed " +
			"backup parents (shared-tree plane; detection/reroute/reconverge split)",
		DefaultTrials: 5,
		Metrics: []MetricDef{
			{Name: "hold_detect_s", Unit: "sim-seconds", Better: Lower,
				Help: "hold-timer detector: crash to the first SessionDown"},
			{Name: "hold_reroute_s", Unit: "sim-seconds", Better: Lower,
				Help: "hold-timer detector: crash to all groups delivering over transit"},
			{Name: "hold_reconverge_s", Unit: "sim-seconds", Better: Lower,
				Help: "hold-timer detector: restart to all groups back on the direct path"},
			{Name: "live_detect_s", Unit: "sim-seconds", Better: Lower,
				Help: "liveness detector: crash to the first SessionDown"},
			{Name: "live_reroute_s", Unit: "sim-seconds", Better: Lower,
				Help: "liveness detector: crash to all groups delivering over transit"},
			{Name: "live_reconverge_s", Unit: "sim-seconds", Better: Lower,
				Help: "liveness detector: restart to all groups back on the direct path"},
			{Name: "reroute_speedup", Unit: "ratio", Better: Higher,
				Help: "hold_reroute_s / live_reroute_s — the time-to-reroute gain"},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			// Both runs share the trial seed so the only difference is the
			// detector. The data plane stays shared-tree: the stateless
			// backends reroute on the iBGP withdrawal regardless of the
			// detector, which is not the comparison being made here.
			run := func(live bool) (core.ChaosPoint, error) {
				cfg := core.DefaultChaosConfig()
				cfg.LossRates = []float64{0.10}
				cfg.Packets = 15
				cfg.CrashFor = 3 * time.Minute
				cfg.Seed = ctx.Seed
				cfg.Obs = ctx.Obs
				cfg.Liveness = live
				pts, err := core.RunChaos(cfg)
				if err != nil {
					return core.ChaosPoint{}, err
				}
				return pts[0], nil
			}
			hold, err := run(false)
			if err != nil {
				return TrialOutput{}, fmt.Errorf("hold-timer run: %w", err)
			}
			live, err := run(true)
			if err != nil {
				return TrialOutput{}, fmt.Errorf("liveness run: %w", err)
			}
			if !hold.Recovered || !live.Recovered {
				return TrialOutput{}, fmt.Errorf(
					"trial did not recover: hold=%t live=%t", hold.Recovered, live.Recovered)
			}
			if live.Reroute <= 0 {
				return TrialOutput{}, fmt.Errorf("liveness reroute time %v, want > 0", live.Reroute)
			}
			return TrialOutput{
				Values: map[string]float64{
					"hold_detect_s":     hold.Detect.Seconds(),
					"hold_reroute_s":    hold.Reroute.Seconds(),
					"hold_reconverge_s": hold.Reconverge.Seconds(),
					"live_detect_s":     live.Detect.Seconds(),
					"live_reroute_s":    live.Reroute.Seconds(),
					"live_reconverge_s": live.Reconverge.Seconds(),
					"reroute_speedup":   hold.Reroute.Seconds() / live.Reroute.Seconds(),
				},
			}, nil
		},
	},
	{
		Name: "chaos-recovery",
		Description: "fault-injected border-router crash under 10% loss: time to reroute " +
			"onto the surviving path and to reconverge after restart",
		DefaultTrials: 5,
		Metrics: []MetricDef{
			{Name: "detect_s", Unit: "sim-seconds", Better: Lower,
				Help: "crash to the first SessionDown for the crashed router"},
			{Name: "reroute_s", Unit: "sim-seconds", Better: Lower,
				Help: "crash to all groups delivering over the transit path"},
			{Name: "reconverge_s", Unit: "sim-seconds", Better: Lower,
				Help: "restart to all groups re-attached on the direct path"},
			{Name: "delivery_ratio", Unit: "fraction", Better: Higher,
				Help: "probe deliveries surviving the lossy steady-state phase"},
			{Name: "recovered", Unit: "bool", Better: Info,
				Help: "1 when the end state is fully healthy"},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			cfg := core.DefaultChaosConfig()
			cfg.LossRates = []float64{0.10}
			cfg.Packets = 15
			cfg.CrashFor = 3 * time.Minute
			cfg.Seed = ctx.Seed
			cfg.Obs = ctx.Obs
			cfg.DataPlane = ctx.Backend
			pts, err := core.RunChaos(cfg)
			if err != nil {
				return TrialOutput{}, err
			}
			pt := pts[0]
			recovered := 0.0
			if pt.Recovered {
				recovered = 1
			}
			return TrialOutput{
				Values: map[string]float64{
					"detect_s":       pt.Detect.Seconds(),
					"reroute_s":      pt.Reroute.Seconds(),
					"reconverge_s":   pt.Reconverge.Seconds(),
					"delivery_ratio": pt.DeliveryRatio,
					"recovered":      recovered,
				},
			}, nil
		},
	},
	{
		Name: "dataplane-compare",
		Description: "the three forwarding backends costed side by side on the " +
			"scale-churn workload: state, path stretch, per-packet header overhead",
		DefaultTrials: 3,
		Metrics: []MetricDef{
			{Name: "shared_entries", Unit: "entries", Better: Lower,
				Help: "shared-tree per-group forwarding entries across all domains"},
			{Name: "bier_transit_entries", Unit: "entries", Better: Lower,
				Help: "BIER per-group entries outside root domains (zero by design)"},
			{Name: "mapencap_transit_entries", Unit: "entries", Better: Lower,
				Help: "map-and-encap per-group entries outside root domains (zero by design)"},
			{Name: "overlay_entries", Unit: "entries", Better: Info,
				Help: "(group, member-domain) records in the root domains' overlay stores"},
			{Name: "shared_stretch", Unit: "ratio", Better: Lower,
				Help: "shared tree: mean delivery path length over shortest path"},
			{Name: "bier_stretch", Unit: "ratio", Better: Lower,
				Help: "BIER: mean delivery path length over shortest path (root detour)"},
			{Name: "mapencap_stretch", Unit: "ratio", Better: Lower,
				Help: "map-and-encap: mean delivery path length over shortest path"},
			{Name: "shared_hdr_pkt", Unit: "bytes", Better: Lower,
				Help: "shared tree: extra header bytes per packet (native forwarding: 0)"},
			{Name: "bier_hdr_pkt", Unit: "bytes", Better: Lower,
				Help: "BIER: bitstring plus climb-tunnel header bytes per packet"},
			{Name: "mapencap_hdr_pkt", Unit: "bytes", Better: Lower,
				Help: "map-and-encap: outer-header bytes per packet across all tunnels"},
			{Name: "shared_hops_pkt", Unit: "hops", Better: Info,
				Help: "shared tree: inter-domain link crossings per packet"},
			{Name: "bier_hops_pkt", Unit: "hops", Better: Info,
				Help: "BIER: inter-domain link crossings per packet"},
			{Name: "mapencap_hops_pkt", Unit: "hops", Better: Info,
				Help: "map-and-encap: inter-domain link crossings per packet"},
			{Name: "delivered", Unit: "packets", Better: Info,
				Help: "member deliveries (identical for every backend by construction)"},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			cfg := experiments.DefaultChurnConfig()
			cfg.Seed = ctx.Seed
			cfg.Obs = ctx.Obs
			res := experiments.RunDataPlane(cfg)
			st, _ := res.Cost(dataplane.SharedTreeName)
			bier, _ := res.Cost(dataplane.BIERName)
			me, _ := res.Cost(dataplane.MapEncapName)
			if bier.Delivered != st.Delivered || me.Delivered != st.Delivered {
				return TrialOutput{}, fmt.Errorf(
					"delivery equivalence broken: shared=%d bier=%d map-encap=%d",
					st.Delivered, bier.Delivered, me.Delivered)
			}
			pkts := float64(res.Churn.Packets)
			return TrialOutput{
				Values: map[string]float64{
					"shared_entries":           float64(st.GroupEntries),
					"bier_transit_entries":     float64(bier.TransitEntries + bier.GroupEntries),
					"mapencap_transit_entries": float64(me.TransitEntries + me.GroupEntries),
					"overlay_entries":          float64(bier.OverlayEntries),
					"shared_stretch":           st.MeanStretch,
					"bier_stretch":             bier.MeanStretch,
					"mapencap_stretch":         me.MeanStretch,
					"shared_hdr_pkt":           float64(st.HeaderBytes) / pkts,
					"bier_hdr_pkt":             float64(bier.HeaderBytes) / pkts,
					"mapencap_hdr_pkt":         float64(me.HeaderBytes) / pkts,
					"shared_hops_pkt":          float64(st.ForwardHops) / pkts,
					"bier_hops_pkt":            float64(bier.ForwardHops) / pkts,
					"mapencap_hops_pkt":        float64(me.ForwardHops) / pkts,
					"delivered":                float64(st.Delivered),
				},
				Rates: map[string]float64{"packets": pkts},
			}, nil
		},
	},
	{
		Name:          "fig2-alloc",
		Description:   "MASC claim-algorithm allocation on the paper's 50x50 hierarchy (Fig 2)",
		DefaultTrials: 3,
		Metrics: []MetricDef{
			{Name: "utilization", Unit: "fraction", Better: Info,
				Help: "steady-state (day > 60) address-space utilization; paper band ~0.5"},
			{Name: "grib_final", Unit: "routes", Better: Lower,
				Help: "mean G-RIB size at the end of the run"},
			{Name: "live_blocks", Unit: "blocks", Better: Info,
				Help: "live block allocations at the end"},
			{Name: "failed", Unit: "requests", Better: Lower,
				Help: "block requests the allocator could not satisfy"},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			cfg := experiments.DefaultFig2Config()
			cfg.Days = 150
			cfg.Seed = ctx.Seed
			cfg.Obs = ctx.Obs
			res := experiments.RunFig2(cfg)
			util, _, _ := res.SteadyState(60)
			return TrialOutput{
				Values: map[string]float64{
					"utilization": util,
					"grib_final":  res.Samples[len(res.Samples)-1].GRIBAvg,
					"live_blocks": float64(res.LiveBlocks),
					"failed":      float64(res.Failed),
				},
				Rates: map[string]float64{"requests": float64(res.Satisfied + res.Failed)},
			}, nil
		},
	},
	{
		Name:          "fig4-trees",
		Description:   "shared-tree path-length overhead sweep over the synthetic AS graph (Fig 4)",
		DefaultTrials: 5,
		Metrics: []MetricDef{
			{Name: "uni_avg", Unit: "ratio", Better: Info,
				Help: "unidirectional (PIM-SM-style RP) overhead vs shortest path, mean over sizes"},
			{Name: "bidir_avg", Unit: "ratio", Better: Lower,
				Help: "bidirectional BGMP tree overhead vs shortest path, mean over sizes"},
			{Name: "hybrid_avg", Unit: "ratio", Better: Lower,
				Help: "hybrid (source-branch) overhead vs shortest path, mean over sizes"},
			{Name: "tree_size", Unit: "domains", Better: Info,
				Help: "mean on-tree domain count at the largest group size"},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			cfg := experiments.DefaultFig4Config()
			cfg.Domains = 1000
			cfg.ExtraPeering = 120
			cfg.GroupSizes = []int{10, 50, 200, 600}
			cfg.Trials = 3
			cfg.Seed = ctx.Seed
			cfg.Obs = ctx.Obs
			pts := experiments.RunFig4(cfg)
			var uni, bidir, hybrid float64
			for _, p := range pts {
				uni += p.UniAvg
				bidir += p.BidirAvg
				hybrid += p.HybridAvg
			}
			n := float64(len(pts))
			return TrialOutput{
				Values: map[string]float64{
					"uni_avg":    uni / n,
					"bidir_avg":  bidir / n,
					"hybrid_avg": hybrid / n,
					"tree_size":  pts[len(pts)-1].TreeSize,
				},
			}, nil
		},
	},
	{
		Name: "scale-churn",
		Description: "join/leave churn over thousands of groups on the paper-scale " +
			"3326-domain AS graph, then a steady-state forwarding phase",
		DefaultTrials: 3,
		Metrics: []MetricDef{
			{Name: "grib_size", Unit: "routes", Better: Lower,
				Help: "aggregated G-RIB routes covering all group blocks"},
			{Name: "forwarding_entries", Unit: "entries", Better: Lower,
				Help: "total (group, domain) forwarding state after churn"},
			{Name: "mean_tree_size", Unit: "domains", Better: Info,
				Help: "mean on-tree domains per group after churn"},
			{Name: "joins", Unit: "ops", Better: Info,
				Help: "join operations processed during the churn phase"},
			{Name: "delivered", Unit: "packets", Better: Info,
				Help: "member deliveries during the forwarding phase"},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			cfg := experiments.DefaultChurnConfig()
			cfg.Seed = ctx.Seed
			cfg.Obs = ctx.Obs
			cfg.DataPlane = ctx.Backend
			res := experiments.RunChurn(cfg)
			return TrialOutput{
				Values: map[string]float64{
					"grib_size":          float64(res.GRIBSize),
					"forwarding_entries": float64(res.ForwardingEntries),
					"mean_tree_size":     res.MeanTreeSize,
					"joins":              float64(res.Joins),
					"delivered":          float64(res.Delivered),
				},
				Rates: map[string]float64{
					"joins":     float64(res.Joins),
					"forwarded": float64(res.ForwardHops),
				},
			}, nil
		},
	},
	workloadsSuite(),
}
