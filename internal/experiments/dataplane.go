package experiments

import (
	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/topology"
)

// Data-plane comparison: the three forwarding backends (shared-tree, BIER
// bitstrings, map-and-encap) evaluated side by side on the scale-churn
// workload. One churn run builds the topology, the MASC allocations, and
// every group's membership; then each steady-state packet is costed under
// all three models at once, so the comparison is apples-to-apples — same
// groups, same members, same senders — and delivery equivalence holds by
// construction (every backend reaches exactly the member set).
//
// The axes the backends trade against each other (DESIGN.md §11):
//
//   - State: the shared tree holds a per-group forwarding entry at every
//     on-tree domain; the stateless backends hold zero per-group entries
//     at transit domains and move membership into the root domains'
//     overlay stores (one record per (group, member domain)).
//   - Path stretch: the shared tree enters at the sender's attach point;
//     the stateless backends detour every packet through the root, the
//     same root-rendezvous stretch the paper measures for unidirectional
//     trees (Fig 4).
//   - Header overhead: the shared tree forwards natively; BIER pays a
//     bitstring on every fan-out hop plus a unicast tunnel for the climb;
//     map-and-encap pays an outer header on every hop of every per-member
//     tunnel.

// BackendCost is one backend's totals over the comparison workload.
type BackendCost struct {
	// Backend is the dataplane backend name.
	Backend string
	// GroupEntries is the total per-group forwarding state across all
	// domains (shared-tree: Σ tree sizes; stateless backends: 0).
	GroupEntries int
	// TransitEntries is the subset of GroupEntries held outside the
	// group's root domain — the state the stateless backends eliminate.
	TransitEntries int
	// OverlayEntries counts (group, member-domain) records in the root
	// domains' overlay membership stores (stateless backends only).
	OverlayEntries int
	// ForwardHops counts inter-domain link crossings in the forwarding
	// phase; HeaderBytes the extra header spend across them; Encaps the
	// tunnels originated; Delivered the member deliveries (identical
	// across backends).
	ForwardHops uint64
	HeaderBytes uint64
	Encaps      uint64
	Delivered   uint64
	// MeanStretch and MaxStretch compare each delivery's path length to
	// the sender→member shortest path (deliveries with the sender inside
	// the member domain are skipped — stretch is undefined at distance 0).
	MeanStretch float64
	MaxStretch  float64
}

// DataPlaneResult is the deterministic outcome of RunDataPlane.
type DataPlaneResult struct {
	// Churn is the workload outcome under the default shared-tree model —
	// field for field what RunChurn returns for the same config with
	// DataPlane unset, including the obs event stream.
	Churn ChurnResult
	// Backends holds one row per backend, in dataplane.Names() order.
	Backends []BackendCost
}

// Cost returns the named backend's row.
func (r DataPlaneResult) Cost(backend string) (BackendCost, bool) {
	for _, c := range r.Backends {
		if c.Backend == backend {
			return c, true
		}
	}
	return BackendCost{}, false
}

// RunDataPlane runs the comparison. cfg.DataPlane is ignored — every
// backend is evaluated. Deterministic for a given config; the observer
// sees the same event stream as RunChurn with the default model.
func RunDataPlane(cfg ChurnConfig) DataPlaneResult {
	st := buildChurn(cfg)

	liveGroups := 0
	for _, gr := range st.groups {
		if gr != nil {
			liveGroups++
		}
	}

	names := dataplane.Names()
	costs := make([]BackendCost, len(names))
	stretchSum := make([]float64, len(names))
	stretchN := make([]uint64, len(names))
	for i, name := range names {
		costs[i].Backend = name
		if name == dataplane.SharedTreeName {
			// Every on-tree domain holds an entry; the root domain's is
			// the one entry per live group that is not transit state.
			costs[i].GroupEntries = st.ForwardingEntries
			costs[i].TransitEntries = st.ForwardingEntries - liveGroups
		} else {
			costs[i].OverlayEntries = st.MembersFinal
		}
	}

	// Shortest-path distances from a sender, the stretch denominators
	// shared by every backend: one search per source domain for the trial.
	// Nearly every domain sends, so the rows are kept narrow.
	fromSrc := make([][]int32, st.g.NumDomains())
	st.forward(cfg.SendsPerGroup, 0, func(gr *modelGroup, src topology.DomainID) {
		sd := fromSrc[src]
		if sd == nil {
			dist, _ := st.g.BFS(src)
			sd = make([]int32, len(dist))
			for i, d := range dist {
				sd[i] = int32(d)
			}
			fromSrc[src] = sd
		}

		for i, name := range names {
			shared := name == dataplane.SharedTreeName
			pc := forwardModel(name)(gr, src)
			costs[i].ForwardHops += pc.Hops
			costs[i].HeaderBytes += pc.HeaderBytes
			costs[i].Encaps += pc.Encaps
			costs[i].Delivered += pc.Delivered
			if shared {
				st.account(gr, pc)
			}

			// Per-delivery stretch: path length under this backend
			// over the direct shortest path.
			for _, m := range gr.members {
				if sd[m] <= 0 {
					continue
				}
				// The stateless planes go through the root: climb to
				// it, then out along its shortest-path tree.
				plen := gr.root.paths.Dist(src) + gr.root.paths.Dist(m)
				if shared {
					plen = gr.tree.BidirLen(src, m)
				}
				ratio := float64(plen) / float64(sd[m])
				stretchSum[i] += ratio
				stretchN[i]++
				if ratio > costs[i].MaxStretch {
					costs[i].MaxStretch = ratio
				}
			}
		}
	})

	for i := range costs {
		if stretchN[i] > 0 {
			costs[i].MeanStretch = stretchSum[i] / float64(stretchN[i])
		}
	}
	return DataPlaneResult{Churn: st.churnResult(), Backends: costs}
}
