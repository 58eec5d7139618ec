package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mascbgmp/internal/topology"
)

// Op is one membership operation a generator emits: domain d joins or
// leaves group g.
type Op struct {
	Group  int
	Domain topology.DomainID
	Join   bool
}

// View is the read-only membership state a generator consults while
// emitting. The engine applies each emitted op immediately, so the view
// reflects ops emitted earlier in the same step.
type View interface {
	// Domains is the topology size.
	Domains() int
	// Active reports whether group slot g exists (engines may have
	// dead slots when address allocation failed).
	Active(g int) bool
	// IsMember reports whether d is a member of group g.
	IsMember(g int, d topology.DomainID) bool
	// MemberCount is group g's current member count.
	MemberCount(g int) int
	// Member returns group g's i-th member (0 <= i < MemberCount(g)),
	// for random leave selection.
	Member(g, i int) topology.DomainID
}

// Env is the fixed context a generator binds to before stepping.
type Env struct {
	Graph  *topology.Graph
	Groups int
}

// Generator produces a workload's membership-op stream, one Emit per
// engine step. Every workload kind is a setting of the same two parts,
// run in this order each step:
//
//   - targets: groups [0, targeted) move toward target(s, g) members.
//     These are flash-crowd's hot groups on their ramp, hold and decay,
//     and every diurnal group on the wave;
//   - toggles: perStep toggles of one (group, domain) pair's membership.
//     The group is drawn from [lo, groups), uniformly or by Zipf (rank 0
//     hottest); the domain uniformly or, for affinity only, from the
//     group's home locality with probability affinity.
//
// A Generator draws randomness only from the rng it is handed: the engine
// passes the same per-trial stream to Start and every Emit, so (spec,
// seed) fully determines the op sequence. It is single-use: Compile a
// fresh one per run.
type Generator struct {
	targeted int
	target   func(s, g int) int
	// peak is flash-crowd's member peak; Start caps it to the topology.
	peak int

	perStep, lo  int
	zipfS, zipfV float64 // zipfS > 0 draws the group by Zipf
	affinity     float64
	locality     int // > 0 gives every group a home locality

	groups int
	zipf   *rand.Zipf
	home   [][]topology.DomainID
}

// Compile builds the generator a workload spec names, after the same
// validation Parse applies.
func Compile(w WorkloadSpec) (*Generator, error) {
	if err := w.validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	gen := &Generator{}
	switch w.Kind {
	case KindZipf:
		// Heavy-hitter groups grow large trees while the tail stays
		// nearly idle: the skew the dynamic-multicast-routing comparison
		// papers use to separate algorithms.
		gen.perStep, gen.zipfS, gen.zipfV = w.EventsPerStep, w.ZipfS, w.ZipfV
	case KindAffinity:
		// Correlated members share most of their path to the root, so
		// trees stay compact: the locality effect uniform churn cannot
		// show. ZipfS == 0 keeps the group pick uniform, so locality is
		// measured apart from popularity skew.
		gen.perStep, gen.zipfS, gen.zipfV = w.EventsPerStep, w.ZipfS, w.ZipfV
		gen.affinity, gen.locality = w.Affinity, w.Locality
	case KindFlashCrowd:
		// The hot groups ramp linearly to the peak, hold it, and decay
		// linearly back to zero by the last step, while the toggles churn
		// the other groups. The simultaneous joins along shared paths are
		// what BGMP join aggregation at the root domain should absorb.
		ramp, hold, steps := int(w.Ramp/w.Step), int(w.Hold/w.Step), w.Steps()
		gen.targeted, gen.peak = w.HotGroups, w.PeakMembers
		gen.lo, gen.perStep = w.HotGroups, w.BackgroundPerStep
		gen.target = func(s, _ int) int {
			switch {
			case s < ramp:
				return gen.peak * (s + 1) / ramp
			case s < ramp+hold:
				return gen.peak
			default:
				return gen.peak * (steps - 1 - s) / (steps - ramp - hold)
			}
		}
	case KindDiurnal:
		// The live-group count swings from BaseGroups at the trough (t = 0
		// mod period) to PeakGroups at the crest on a (1-cos)/2 wave:
		// groups below it hold MembersPerGroup members, the rest none.
		// Rising demand makes every root allocator lease more blocks,
		// forcing §4.3.3 prefix doublings past the 75% target, and the
		// trough lets leases and then claims expire until holdings
		// collapse back to the ledger.
		perPeriod := float64(w.Period) / float64(w.Step)
		gen.targeted = w.Groups
		gen.target = func(s, g int) int {
			wave := (1 - math.Cos(2*math.Pi*float64(s)/perPeriod)) / 2
			if g < w.BaseGroups+int(math.Round(float64(w.PeakGroups-w.BaseGroups)*wave)) {
				return w.MembersPerGroup
			}
			return 0
		}
	default: // KindUniform: validate rejects every other kind
		gen.perStep = w.EventsPerStep
	}
	return gen, nil
}

// Uniform returns the classic churn generator: per step, perStep toggles
// of a uniform group and a uniform domain. Its rng stream (group draw,
// activity check, domain draw) is the scale-churn suite's historical one,
// which keeps the checked-in BENCH_scale.json baseline bit-identical.
func Uniform(perStep int) *Generator { return &Generator{perStep: perStep} }

// Start binds the generator to the run's topology and group count. Only
// affinity draws here: one locality center per group.
func (gen *Generator) Start(env Env, rng *rand.Rand) {
	gen.groups = env.Groups
	n := env.Graph.NumDomains()
	// The crowd cannot exceed the topology; cap at 90% so random
	// non-member draws keep a workable hit rate at the peak.
	gen.peak = max(1, min(gen.peak, n*9/10))
	if gen.zipfS > 0 {
		gen.zipf = rand.NewZipf(rng, gen.zipfS, gen.zipfV, uint64(env.Groups-1))
	}
	if gen.locality == 0 {
		return
	}
	// A home locality is the locality domains nearest a random center
	// (BFS metric), nearest first, ties by ID; unreachable domains sort
	// last and are trimmed.
	size := min(gen.locality, n)
	gen.home = make([][]topology.DomainID, env.Groups)
	for g := range gen.home {
		dist, _ := env.Graph.BFS(topology.DomainID(rng.Intn(n)))
		ids := make([]topology.DomainID, n)
		for i := range ids {
			ids[i] = topology.DomainID(i)
		}
		sort.Slice(ids, func(i, j int) bool {
			di, dj := dist[ids[i]], dist[ids[j]]
			if di < 0 {
				di = n + 1
			}
			if dj < 0 {
				dj = n + 1
			}
			if di != dj {
				return di < dj
			}
			return ids[i] < ids[j]
		})
		reach := size
		for reach > 0 && dist[ids[reach-1]] < 0 {
			reach--
		}
		reach = max(reach, 1) // the center itself
		gen.home[g] = ids[:reach:reach]
	}
}

// Emit appends step s's ops via emit, the targets first, then the
// toggles. Ops take effect immediately: v reflects everything emitted so
// far.
func (gen *Generator) Emit(s int, v View, rng *rand.Rand, emit func(Op)) {
	for g := 0; g < gen.targeted; g++ {
		if v.Active(g) {
			moveToward(g, gen.target(s, g), v, rng, emit)
		}
	}
	for i := 0; i < gen.perStep; i++ {
		var g int
		if gen.zipf != nil {
			g = int(gen.zipf.Uint64())
		} else {
			g = gen.lo + rng.Intn(gen.groups-gen.lo)
		}
		if !v.Active(g) {
			continue
		}
		var d topology.DomainID
		if gen.home != nil && rng.Float64() < gen.affinity {
			d = gen.home[g][rng.Intn(len(gen.home[g]))]
		} else {
			d = topology.DomainID(rng.Intn(v.Domains()))
		}
		emit(Op{Group: g, Domain: d, Join: !v.IsMember(g, d)})
	}
}

// moveToward emits joins of random non-member domains (or leaves of
// random members) until group g's member count reaches want. The count
// is re-read from the view after every op — the engine may decline an
// op (unreachable domain in a file topology) — and join draws carry a
// deterministic attempt budget so a near-full topology cannot spin.
func moveToward(g, want int, v View, rng *rand.Rand, emit func(Op)) {
	if cur := v.MemberCount(g); want > cur {
		for budget := 20 * (want - cur + 5); v.MemberCount(g) < want && budget > 0; budget-- {
			d := topology.DomainID(rng.Intn(v.Domains()))
			if v.IsMember(g, d) {
				continue
			}
			emit(Op{Group: g, Domain: d, Join: true})
		}
		return
	}
	for v.MemberCount(g) > want {
		d := v.Member(g, rng.Intn(v.MemberCount(g)))
		emit(Op{Group: g, Domain: d, Join: false})
	}
}
