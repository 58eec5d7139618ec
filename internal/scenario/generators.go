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
// engine step. Implementations draw randomness only from the rng they
// are handed — the engine passes the same per-trial stream to Start and
// every Emit, so (spec, seed) fully determines the op sequence. A
// Generator is single-use: Compile a fresh one per run.
type Generator interface {
	Name() string
	// Start binds the generator to the run's topology and group count.
	Start(env Env, rng *rand.Rand)
	// Emit appends step s's ops via emit. Ops take effect immediately:
	// v reflects everything emitted so far.
	Emit(s int, v View, rng *rand.Rand, emit func(Op))
}

// Compile builds the generator a workload spec names, after the same
// validation Parse applies.
func Compile(w WorkloadSpec) (Generator, error) {
	if err := w.validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	switch w.Kind {
	case KindZipf:
		return &Zipf{PerStep: w.EventsPerStep, S: w.ZipfS, V: w.ZipfV}, nil
	case KindAffinity:
		return &Affinity{PerStep: w.EventsPerStep, P: w.Affinity, Locality: w.Locality,
			S: w.ZipfS, V: w.ZipfV}, nil
	case KindFlashCrowd:
		return &FlashCrowd{Hot: w.HotGroups, Peak: w.PeakMembers,
			RampSteps: int(w.Ramp / w.Step), HoldSteps: int(w.Hold / w.Step), Steps: w.Steps(),
			BackgroundPerStep: w.BackgroundPerStep}, nil
	case KindDiurnal:
		return &Diurnal{StepsPerPeriod: float64(w.Period) / float64(w.Step),
			Base: w.BaseGroups, Peak: w.PeakGroups, Members: w.MembersPerGroup}, nil
	default: // KindUniform: validate rejects every other kind
		return &Uniform{PerStep: w.EventsPerStep}, nil
	}
}

// Uniform is the classic churn model: per event, a uniform group and a
// uniform domain, toggling membership. It reproduces the scale-churn
// suite's historical rng stream exactly (group draw, activity check,
// domain draw), so feeding it through the engine leaves the checked-in
// BENCH_scale.json baseline bit-identical.
type Uniform struct {
	// PerStep is the number of toggle events per engine step.
	PerStep int
	groups  int
}

func (u *Uniform) Name() string { return KindUniform }

func (u *Uniform) Start(env Env, _ *rand.Rand) { u.groups = env.Groups }

func (u *Uniform) Emit(_ int, v View, rng *rand.Rand, emit func(Op)) {
	per := u.PerStep
	if per < 1 {
		per = 1
	}
	for i := 0; i < per; i++ {
		g := rng.Intn(u.groups)
		if !v.Active(g) {
			continue
		}
		d := topology.DomainID(rng.Intn(v.Domains()))
		emit(Op{Group: g, Domain: d, Join: !v.IsMember(g, d)})
	}
}

// Zipf skews group popularity: the group index is drawn from a Zipf
// distribution (rank 0 hottest), the domain uniformly, toggling
// membership. Heavy-hitter groups grow large trees while the tail stays
// nearly idle — the skew the dynamic-multicast-routing comparison papers
// use to separate algorithms.
type Zipf struct {
	PerStep int
	S, V    float64
	groups  int
	z       *rand.Zipf
}

func (z *Zipf) Name() string { return KindZipf }

func (z *Zipf) Start(env Env, rng *rand.Rand) {
	z.groups = env.Groups
	z.z = rand.NewZipf(rng, z.S, z.V, uint64(env.Groups-1))
}

func (z *Zipf) Emit(_ int, v View, rng *rand.Rand, emit func(Op)) {
	for i := 0; i < z.PerStep; i++ {
		g := int(z.z.Uint64())
		if !v.Active(g) {
			continue
		}
		d := topology.DomainID(rng.Intn(v.Domains()))
		emit(Op{Group: g, Domain: d, Join: !v.IsMember(g, d)})
	}
}

// Affinity correlates membership with topology: each group gets a home
// locality (the Locality domains nearest a random center, BFS metric),
// and a join draws its domain from that locality with probability P.
// Correlated members share most of their path to the root, so trees
// stay compact — the locality effect the uniform model cannot show.
type Affinity struct {
	PerStep  int
	P        float64
	Locality int
	// S and V enable a Zipf group pick when S > 0; S == 0 keeps it
	// uniform so locality is measured orthogonally to popularity skew.
	S, V   float64
	groups int
	z      *rand.Zipf
	home   [][]topology.DomainID
}

func (a *Affinity) Name() string { return KindAffinity }

func (a *Affinity) Start(env Env, rng *rand.Rand) {
	a.groups = env.Groups
	if a.S > 0 {
		a.z = rand.NewZipf(rng, a.S, a.V, uint64(env.Groups-1))
	}
	n := env.Graph.NumDomains()
	size := a.Locality
	if size > n {
		size = n
	}
	a.home = make([][]topology.DomainID, env.Groups)
	for g := range a.home {
		center := topology.DomainID(rng.Intn(n))
		dist, _ := env.Graph.BFS(center)
		ids := make([]topology.DomainID, n)
		for i := range ids {
			ids[i] = topology.DomainID(i)
		}
		// Nearest-first, ties by ID; unreachable (-1) domains sort last
		// and are trimmed below.
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
		if reach == 0 {
			reach = 1 // the center itself
		}
		a.home[g] = ids[:reach:reach]
	}
}

func (a *Affinity) Emit(_ int, v View, rng *rand.Rand, emit func(Op)) {
	for i := 0; i < a.PerStep; i++ {
		var g int
		if a.z != nil {
			g = int(a.z.Uint64())
		} else {
			g = rng.Intn(a.groups)
		}
		if !v.Active(g) {
			continue
		}
		var d topology.DomainID
		if rng.Float64() < a.P {
			d = a.home[g][rng.Intn(len(a.home[g]))]
		} else {
			d = topology.DomainID(rng.Intn(v.Domains()))
		}
		emit(Op{Group: g, Domain: d, Join: !v.IsMember(g, d)})
	}
}

// FlashCrowd converges a crowd on a few hot groups: groups 0..Hot-1 ramp
// linearly to Peak member domains over RampSteps, hold for HoldSteps,
// and decay linearly back to zero by the last step, while the remaining
// groups see BackgroundPerStep uniform toggles per step. The
// simultaneous joins along shared paths are exactly what BGMP join
// aggregation at the root domain is supposed to absorb.
type FlashCrowd struct {
	Hot               int
	Peak              int
	RampSteps         int
	HoldSteps         int
	Steps             int
	BackgroundPerStep int
	groups            int
}

func (f *FlashCrowd) Name() string { return KindFlashCrowd }

func (f *FlashCrowd) Start(env Env, _ *rand.Rand) {
	f.groups = env.Groups
	// The crowd cannot exceed the topology; cap at 90% so random
	// non-member draws keep a workable hit rate at the peak.
	if limit := env.Graph.NumDomains() * 9 / 10; f.Peak > limit {
		f.Peak = limit
	}
	if f.Peak < 1 {
		f.Peak = 1
	}
}

// target returns the hot-group member target at step s.
func (f *FlashCrowd) target(s int) int {
	switch {
	case s < f.RampSteps:
		return f.Peak * (s + 1) / f.RampSteps
	case s < f.RampSteps+f.HoldSteps:
		return f.Peak
	default:
		decay := f.Steps - f.RampSteps - f.HoldSteps
		left := f.Steps - 1 - s
		return f.Peak * left / decay
	}
}

func (f *FlashCrowd) Emit(s int, v View, rng *rand.Rand, emit func(Op)) {
	tgt := f.target(s)
	for g := 0; g < f.Hot; g++ {
		if !v.Active(g) {
			continue
		}
		moveToward(g, tgt, v, rng, emit)
	}
	for i := 0; i < f.BackgroundPerStep; i++ {
		g := f.Hot + rng.Intn(f.groups-f.Hot)
		if !v.Active(g) {
			continue
		}
		d := topology.DomainID(rng.Intn(v.Domains()))
		emit(Op{Group: g, Domain: d, Join: !v.IsMember(g, d)})
	}
}

// Diurnal swings the live-group count between Base and Peak on a
// (1-cos)/2 wave: groups 0..A(t)-1 hold Members member domains each,
// the rest are empty. Rising demand makes every root allocator lease
// more blocks — forcing §4.3.3 prefix doublings once occupancy passes
// the 75% target — and the trough lets leases and then claims expire,
// draining holdings until they collapse back to the ledger.
type Diurnal struct {
	StepsPerPeriod float64
	Base, Peak     int
	Members        int
	groups         int
}

func (d *Diurnal) Name() string { return KindDiurnal }

func (d *Diurnal) Start(env Env, _ *rand.Rand) { d.groups = env.Groups }

// active returns the live-group target at step s: Base at the trough
// (t = 0 mod period), Peak at the crest (t = period/2).
func (d *Diurnal) active(s int) int {
	phase := 2 * math.Pi * float64(s) / d.StepsPerPeriod
	wave := (1 - math.Cos(phase)) / 2
	a := d.Base + int(math.Round(float64(d.Peak-d.Base)*wave))
	if a > d.groups {
		a = d.groups
	}
	return a
}

func (d *Diurnal) Emit(s int, v View, rng *rand.Rand, emit func(Op)) {
	live := d.active(s)
	for g := 0; g < d.groups; g++ {
		if !v.Active(g) {
			continue
		}
		want := 0
		if g < live {
			want = d.Members
		}
		moveToward(g, want, v, rng, emit)
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
