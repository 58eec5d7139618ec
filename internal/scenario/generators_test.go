package scenario

import (
	"fmt"
	"math/rand"
	"testing"

	"mascbgmp/internal/topology"
	"mascbgmp/scenarios"
)

// memView is the reference View: every group active, ops applied
// immediately — the same contract the experiments engine provides.
type memView struct {
	domains int
	members []map[topology.DomainID]bool
	order   [][]topology.DomainID
}

func newMemView(domains, groups int) *memView {
	v := &memView{domains: domains,
		members: make([]map[topology.DomainID]bool, groups),
		order:   make([][]topology.DomainID, groups)}
	for g := range v.members {
		v.members[g] = map[topology.DomainID]bool{}
	}
	return v
}

func (v *memView) Domains() int      { return v.domains }
func (v *memView) Active(g int) bool { return g >= 0 && g < len(v.members) }
func (v *memView) MemberCount(g int) int {
	return len(v.order[g])
}
func (v *memView) IsMember(g int, d topology.DomainID) bool { return v.members[g][d] }
func (v *memView) Member(g, i int) topology.DomainID        { return v.order[g][i] }

func (v *memView) apply(op Op) {
	if op.Join {
		if !v.members[op.Group][op.Domain] {
			v.members[op.Group][op.Domain] = true
			v.order[op.Group] = append(v.order[op.Group], op.Domain)
		}
		return
	}
	if v.members[op.Group][op.Domain] {
		delete(v.members[op.Group], op.Domain)
		ord := v.order[op.Group]
		for i, d := range ord {
			if d == op.Domain {
				v.order[op.Group] = append(ord[:i], ord[i+1:]...)
				break
			}
		}
	}
}

// run drives one generator over the workload's steps and returns the
// op stream as a single string (the byte-identity unit of comparison).
func run(t *testing.T, w WorkloadSpec, g *topology.Graph, seed int64) string {
	t.Helper()
	gen, err := Compile(w)
	if err != nil {
		t.Fatalf("Compile(%s): %v", w.Kind, err)
	}
	rng := rand.New(rand.NewSource(seed))
	gen.Start(Env{Graph: g, Groups: w.Groups}, rng)
	v := newMemView(g.NumDomains(), w.Groups)
	var stream []byte
	for s := 0; s < w.Steps(); s++ {
		gen.Emit(s, v, rng, func(op Op) {
			v.apply(op)
			join := byte('-')
			if op.Join {
				join = '+'
			}
			stream = append(stream, []byte(fmt.Sprintf("%d:%c%d@%d\n", s, join, op.Group, op.Domain))...)
		})
	}
	return string(stream)
}

func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	return topology.ASGraph(128, 16, 7)
}

// TestGeneratorDeterminism: same spec + seed => byte-identical op
// streams, and different seeds actually differ. This is the generator
// half of the -parallel 1 vs 8 guarantee (the bench half re-checks it
// through RunSuite).
func TestGeneratorDeterminism(t *testing.T) {
	g := testGraph(t)
	for _, name := range scenarios.Names() {
		w := exemplar(t, name).Workload
		// Shrink the exemplars so the sweep stays fast; shape knobs and
		// rng discipline are what matter here.
		w.Duration = 30 * w.Step
		if w.Kind == KindDiurnal {
			w.Period = 20 * w.Step
			w.PeakGroups, w.Groups = 12, 12
			w.BaseGroups = 0
		}
		if w.Kind == KindFlashCrowd {
			w.Ramp, w.Hold = 8*w.Step, 8*w.Step
			w.PeakMembers = 40
		}
		t.Run(name, func(t *testing.T) {
			a := run(t, w, g, 42)
			if b := run(t, w, g, 42); a != b {
				t.Fatal("same seed produced different op streams")
			}
			if a == "" {
				t.Fatal("empty op stream")
			}
			if c := run(t, w, g, 43); a == c {
				t.Fatal("different seeds produced identical op streams")
			}
		})
	}
}

func TestDiurnalWaveShape(t *testing.T) {
	d := &Diurnal{StepsPerPeriod: 96, Base: 3, Peak: 51, Members: 4, groups: 51}
	if got := d.active(0); got != 3 {
		t.Errorf("active(trough) = %d, want base 3", got)
	}
	if got := d.active(48); got != 51 {
		t.Errorf("active(crest) = %d, want peak 51", got)
	}
	if got := d.active(96); got != 3 {
		t.Errorf("active(next trough) = %d, want base 3", got)
	}
	for s := 1; s <= 48; s++ {
		if d.active(s) < d.active(s-1) {
			t.Fatalf("wave not monotone on the rise at step %d", s)
		}
	}
}

func TestFlashCrowdTargetShape(t *testing.T) {
	f := &FlashCrowd{Hot: 2, Peak: 100, RampSteps: 10, HoldSteps: 5, Steps: 30}
	if got := f.target(9); got != 100 {
		t.Errorf("end of ramp = %d, want 100", got)
	}
	if got := f.target(12); got != 100 {
		t.Errorf("hold = %d, want 100", got)
	}
	if got := f.target(29); got != 0 {
		t.Errorf("last step = %d, want 0 (crowd fully drained)", got)
	}
	for s := 1; s < 10; s++ {
		if f.target(s) < f.target(s-1) {
			t.Fatalf("ramp not monotone at step %d", s)
		}
	}
	for s := 16; s < 30; s++ {
		if f.target(s) > f.target(s-1) {
			t.Fatalf("decay not monotone at step %d", s)
		}
	}
}

// TestFlashCrowdReachesPeak runs the generator end to end and checks
// the hot groups actually hit the (possibly capped) peak during hold.
func TestFlashCrowdReachesPeak(t *testing.T) {
	g := testGraph(t)
	w := WorkloadSpec{Kind: KindFlashCrowd, Groups: 8, HotGroups: 2,
		PeakMembers: 500, // above the 90% cap of 128 domains
		Duration:    30, Step: 1, Ramp: 10, Hold: 10}
	gen, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	gen.Start(Env{Graph: g, Groups: w.Groups}, rng)
	cap90 := 128 * 9 / 10
	v := newMemView(128, w.Groups)
	peak := 0
	for s := 0; s < w.Steps(); s++ {
		gen.Emit(s, v, rng, v.apply)
		if c := v.MemberCount(0); c > peak {
			peak = c
		}
	}
	if peak != cap90 {
		t.Errorf("hot group peaked at %d members, want capped peak %d", peak, cap90)
	}
	if final := v.MemberCount(0); final != 0 {
		t.Errorf("hot group still has %d members after decay", final)
	}
}

// TestAffinityLocality: with P=1 every member comes from the group's
// home locality; with P=0 membership spreads beyond any 8-domain ball.
func TestAffinityLocality(t *testing.T) {
	g := testGraph(t)
	w := WorkloadSpec{Kind: KindAffinity, Groups: 4, EventsPerStep: 200,
		Affinity: 1.0, Locality: 8, Duration: 10, Step: 1}
	gen, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	aff := gen.(*Affinity)
	rng := rand.New(rand.NewSource(5))
	gen.Start(Env{Graph: g, Groups: w.Groups}, rng)
	v := newMemView(128, w.Groups)
	for s := 0; s < w.Steps(); s++ {
		gen.Emit(s, v, rng, v.apply)
	}
	for gi := 0; gi < w.Groups; gi++ {
		home := map[topology.DomainID]bool{}
		for _, d := range aff.home[gi] {
			home[d] = true
		}
		if len(aff.home[gi]) != 8 {
			t.Errorf("group %d home locality has %d domains, want 8", gi, len(aff.home[gi]))
		}
		for _, d := range v.order[gi] {
			if !home[d] {
				t.Errorf("group %d member %d outside its home locality", gi, d)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := testGraph(t)
	w := WorkloadSpec{Kind: KindZipf, Groups: 64, EventsPerStep: 500,
		ZipfS: 1.5, ZipfV: 1, Duration: 4, Step: 1}
	gen, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	gen.Start(Env{Graph: g, Groups: w.Groups}, rng)
	v := newMemView(128, w.Groups)
	counts := make([]int, w.Groups)
	for s := 0; s < w.Steps(); s++ {
		gen.Emit(s, v, rng, func(op Op) { v.apply(op); counts[op.Group]++ })
	}
	head := counts[0] + counts[1] + counts[2] + counts[3]
	total := 0
	for _, c := range counts {
		total += c
	}
	if head*2 < total {
		t.Errorf("top-4 groups got %d of %d ops; zipf skew too weak", head, total)
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	cases := []WorkloadSpec{
		{Kind: "mystery"},
		{Kind: KindZipf, Groups: 8, ZipfS: 0.5, ZipfV: 1, EventsPerStep: 1},
		{Kind: KindFlashCrowd, Groups: 8, HotGroups: 1, PeakMembers: 5,
			Duration: 10, Step: 1, Ramp: 6, Hold: 6},
		{Kind: KindDiurnal, Groups: 8, Step: 1, Period: 1, BaseGroups: 0, PeakGroups: 8},
	}
	for _, w := range cases {
		if _, err := Compile(w); err == nil {
			t.Errorf("Compile accepted %+v", w)
		}
	}
}
