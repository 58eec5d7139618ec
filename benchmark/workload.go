package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/topology"
)

// worldSeed fixes every workload's world: topology, root domains, group
// membership, sender sets, churn candidates and flap links. The run's
// -seed drives only the op scripts replayed against that world (order of
// every send, join, leave and flap, and the payload bytes), so a gated
// metric measures the same work on every seed and two runs of the same
// code are comparable whatever seeds the driver hands them.
const worldSeed = 1998

// numRoots is how many top-level domains win a MASC /20 and root groups.
const numRoots = 8

// spec sizes one workload. Op counts are constants, never durations: a
// phase replays the same number of ops on every run.
type spec struct {
	name, why string

	domains, extraPeering int
	groups, members       int // groups × member domains per group
	nonMemberSenders      bool
	dataPlane             string

	sendersPerGroup      int // 64 B packets per group per round
	largeSendersPerGroup int // 1400 B packets per group per round
	churnExtra           int // non-member domains joined per group per pass
	passes               int // join-all/leave-all passes per round
	flaps                int // Unlink+Link pairs per round
}

// The four workloads. Sizes follow the sizing table in README.md: every
// phase of a round runs for at least 0.3 s on the reference box.
var workloads = []spec{
	{
		name:    "tree-dense",
		why:     "30 deliveries over dozens of on-tree hops per packet: bgmp forwarding, migp delivery and the wire.Data codec do the work; the G-RIB is never consulted on-tree",
		domains: 200, extraPeering: 40, groups: 64, members: 30,
		dataPlane:       dataplane.SharedTreeName,
		sendersPerGroup: 24, largeSendersPerGroup: 16, churnExtra: 10, passes: 90, flaps: 12,
	},
	{
		name:    "mesh-sparse",
		why:     "2048 three-member groups on a richly peered graph, every sender off-tree: bgp.Lookup on every hop, BGP decision and BGMP repair dominate flaps and set-up; fan-out does little",
		domains: 150, extraPeering: 250, groups: 2048, members: 3, nonMemberSenders: true,
		dataPlane:       dataplane.SharedTreeName,
		sendersPerGroup: 5, largeSendersPerGroup: 4, churnExtra: 2, passes: 8, flaps: 22,
	},
	{
		name:    "bier-dense",
		why:     "tree-dense traffic on the bier backend: joins become MemberReports into the root's overlay store, sends replicate bitstrings, zero bgmp transit state",
		domains: 200, extraPeering: 40, groups: 64, members: 30,
		dataPlane:       dataplane.BIERName,
		sendersPerGroup: 10, largeSendersPerGroup: 9, churnExtra: 10, passes: 72, flaps: 12,
	},
	{
		name:    "encap-dense",
		why:     "tree-dense traffic on the map-encap backend: tunnel to the root plus one egress tunnel per member domain; keeps the third delivery mode gated",
		domains: 200, extraPeering: 40, groups: 64, members: 30,
		dataPlane:       dataplane.MapEncapName,
		sendersPerGroup: 8, largeSendersPerGroup: 6, churnExtra: 10, passes: 72, flaps: 12,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// link is an inter-domain adjacency by domain index, a < b.
type link struct{ a, b int }

// world is everything about a workload that does not depend on the run's
// seed. Domains are indices into the topology graph.
type world struct {
	spec  spec
	graph *topology.Graph
	roots []int // numRoots top-level domains; group i is rooted at roots[i%numRoots]
	// members[g] is group g's member domains, ascending.
	members [][]int
	// senders[g] / largeSenders[g] are the domains that send to group g in
	// every round, one packet each.
	senders, largeSenders [][]int
	// churn[p][g] lists the non-member domains that join and then leave
	// group g in pass p.
	churn [][][]int
	// flapLinks are non-bridge links on at least one root→member shortest
	// path; every round flaps each once.
	flapLinks []link
}

func newWorld(s spec) (*world, error) {
	if s.members+s.churnExtra > s.domains || numRoots > s.domains {
		return nil, fmt.Errorf("workload %s: %d domains cannot hold %d members + %d churners",
			s.name, s.domains, s.members, s.churnExtra)
	}
	r := rand.New(rand.NewSource(worldSeed))
	w := &world{spec: s, graph: topology.ASGraph(s.domains, s.extraPeering, worldSeed)}
	w.roots = r.Perm(s.domains)[:numRoots]

	pick := func(from []int, n int) []int {
		if n > len(from) {
			n = len(from)
		}
		out := make([]int, n)
		for i, j := range r.Perm(len(from))[:n] {
			out[i] = from[j]
		}
		return out
	}
	all := make([]int, s.domains)
	for i := range all {
		all[i] = i
	}
	onPath := map[link]bool{}
	var nonMembers [][]int // per group, ascending
	for g := 0; g < s.groups; g++ {
		mem := pick(all, s.members)
		sort.Ints(mem)
		w.members = append(w.members, mem)
		var non []int
		for _, d := range all {
			if !containsInt(mem, d) {
				non = append(non, d)
			}
		}
		nonMembers = append(nonMembers, non)
		from := all
		if s.nonMemberSenders {
			from = non
		}
		w.senders = append(w.senders, pick(from, s.sendersPerGroup))
		w.largeSenders = append(w.largeSenders, pick(from, s.largeSendersPerGroup))

		_, parent := w.graph.BFS(topology.DomainID(w.roots[g%numRoots]))
		for _, m := range mem {
			for v := topology.DomainID(m); parent[v] != topology.NoDomain; v = parent[v] {
				onPath[mkLink(int(v), int(parent[v]))] = true
			}
		}
	}
	for p := 0; p < s.passes; p++ {
		pass := make([][]int, s.groups)
		for g := range pass {
			pass[g] = pick(nonMembers[g], s.churnExtra)
		}
		w.churn = append(w.churn, pass)
	}

	var eligible []link
	for l := range onPath {
		if !w.isBridge(l) {
			eligible = append(eligible, l)
		}
	}
	sort.Slice(eligible, func(i, j int) bool {
		if eligible[i].a != eligible[j].a {
			return eligible[i].a < eligible[j].a
		}
		return eligible[i].b < eligible[j].b
	})
	if len(eligible) < s.flaps {
		return nil, fmt.Errorf("workload %s: only %d non-bridge on-path links, need %d", s.name, len(eligible), s.flaps)
	}
	// The flap links have a generator of their own, so that resizing another
	// phase leaves them alone: not every link's flap leaves the trees as it
	// found them (see README.md, "Verification"), and a list that does is
	// kept.
	for _, i := range rand.New(rand.NewSource(worldSeed + 1)).Perm(len(eligible))[:s.flaps] {
		w.flapLinks = append(w.flapLinks, eligible[i])
	}
	return w, nil
}

func mkLink(a, b int) link {
	if a > b {
		a, b = b, a
	}
	return link{a, b}
}

func containsInt(sorted []int, v int) bool {
	_, found := slices.BinarySearch(sorted, v)
	return found
}

// isBridge reports whether removing l disconnects the graph.
func (w *world) isBridge(l link) bool {
	n := w.graph.NumDomains()
	seen := make([]bool, n)
	seen[l.a] = true
	queue := []int{l.a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range w.graph.Neighbors(topology.DomainID(u)) {
			v := int(e.To)
			if seen[v] || mkLink(u, v) == l {
				continue
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	return !seen[l.b]
}

// pair is one (group, domain) op target.
type pair struct{ group, domain int32 }

// pass is one churn pass: every pair joins in joins order, then leaves in
// leaves order (the same set, reshuffled).
type pass struct{ joins, leaves []pair }

// script is the seeded op stream a round replays. The program under test
// sees only these calls.
type script struct {
	sends, largeSends     []pair
	payload, largePayload string
	passes                []pass
	flaps                 []link
}

func newScript(w *world, seed int64) *script {
	r := rand.New(rand.NewSource(seed))
	sc := &script{payload: randomPayload(r, 64), largePayload: randomPayload(r, 1400)}
	flatten := func(per [][]int) []pair {
		var out []pair
		for g, ds := range per {
			for _, d := range ds {
				out = append(out, pair{int32(g), int32(d)})
			}
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	sc.sends = flatten(w.senders)
	sc.largeSends = flatten(w.largeSenders)
	for _, p := range r.Perm(len(w.churn)) {
		joins := flatten(w.churn[p])
		leaves := append([]pair(nil), joins...)
		r.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		sc.passes = append(sc.passes, pass{joins, leaves})
	}
	sc.flaps = append([]link(nil), w.flapLinks...)
	r.Shuffle(len(sc.flaps), func(i, j int) { sc.flaps[i], sc.flaps[j] = sc.flaps[j], sc.flaps[i] })
	return sc
}

func randomPayload(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// hash fingerprints the script: same seed, same hash.
func (sc *script) hash() uint64 {
	h := fnv.New64a()
	put := func(vs ...int32) {
		var b [4]byte
		for _, v := range vs {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
	for _, ps := range [][]pair{sc.sends, sc.largeSends} {
		for _, p := range ps {
			put(p.group, p.domain)
		}
	}
	for _, p := range sc.passes {
		for _, q := range p.joins {
			put(q.group, q.domain)
		}
		for _, q := range p.leaves {
			put(q.group, q.domain)
		}
	}
	for _, l := range sc.flaps {
		put(int32(l.a), int32(l.b))
	}
	h.Write([]byte(sc.payload))
	h.Write([]byte(sc.largePayload))
	return h.Sum64()
}

// joinsPerRound is the number of join ops (and of leave ops) in a round.
func (sc *script) joinsPerRound() int {
	n := 0
	for _, p := range sc.passes {
		n += len(p.joins)
	}
	return n
}
