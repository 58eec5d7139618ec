package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"

	"mascbgmp/internal/topology"
)

func TestScriptFollowsSeed(t *testing.T) {
	sp, _ := findWorkload("tree-dense")
	w, err := newWorld(sp.smoke())
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := newScript(w, 1998), newScript(w, 1998), newScript(w, 2026)
	if a.hash() != b.hash() {
		t.Error("same seed, different op scripts")
	}
	if a.hash() == c.hash() {
		t.Error("different seeds, identical op scripts")
	}
}

// Every churn pass joins only non-members and leaves exactly what it
// joined, so membership is back at the baseline after each pass.
func TestChurnRestoresBaseline(t *testing.T) {
	for _, sp := range workloads {
		w, err := newWorld(sp.smoke())
		if err != nil {
			t.Fatal(err)
		}
		sc := newScript(w, 7)
		if len(sc.passes) != w.spec.passes {
			t.Fatalf("%s: %d passes, want %d", sp.name, len(sc.passes), w.spec.passes)
		}
		for _, p := range sc.passes {
			joined := map[pair]int{}
			for _, q := range p.joins {
				if containsInt(w.members[q.group], int(q.domain)) {
					t.Fatalf("%s: churn joins current member %d of group %d", sp.name, q.domain, q.group)
				}
				joined[q]++
			}
			for _, q := range p.leaves {
				joined[q]--
			}
			for q, n := range joined {
				if n != 0 {
					t.Fatalf("%s: pair %+v joined and left unevenly (%+d)", sp.name, q, n)
				}
			}
		}
	}
}

// The full-size flap lists are checked against an independent bridge
// test: remove the link from a fresh copy of the graph, ask topology.
func TestFlapLinksAreNotBridges(t *testing.T) {
	for _, sp := range workloads {
		w, err := newWorld(sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.flapLinks) != sp.flaps {
			t.Fatalf("%s: %d flap links, want %d", sp.name, len(w.flapLinks), sp.flaps)
		}
		for _, l := range w.flapLinks {
			g := topology.ASGraph(sp.domains, sp.extraPeering, worldSeed)
			if !g.RemoveLink(topology.DomainID(l.a), topology.DomainID(l.b)) {
				t.Fatalf("%s: flap link %v is not in the graph", sp.name, l)
			}
			if !g.Connected() {
				t.Errorf("%s: flap link %v is a bridge", sp.name, l)
			}
		}
	}
}

func TestMedianAndQuantiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); math.Abs(got-4.96) > 1e-9 {
		t.Errorf("p99 = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// A hiccup in one piece of one round moves neither that piece's median nor
// the estimate: 2 ops per piece, pieces of 10 and 30 ns.
func TestTypicalIsPerPieceMedian(t *testing.T) {
	var ops [numClasses]int
	ops[opSend] = 4
	round := func(a, b float64) pieces {
		var p pieces
		p[opSend] = []float64{a, b}
		return p
	}
	got := typical([]pieces{round(10, 30), round(500, 30), round(10, 31)}, ops)
	if got[opSend] != 10 {
		t.Errorf("typical = %v ns per op, want (10+30)/4", got[opSend])
	}
	if got := round(10, 30).perOp(ops); got[opSend] != 10 {
		t.Errorf("perOp = %v, want 10", got[opSend])
	}
}

// The result line carries every name BENCHMARK.json lists, once, with the
// unit it lists; and BENCHMARK.json lists the four workloads.
func TestResultMatchesBenchmarkFile(t *testing.T) {
	f, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, wl := range f.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, wl.Name, workloads[i].name)
		}
	}
	check := func(kind string, defs []metricDef, listed map[string]string) {
		rp := &report{metrics: map[string]float64{}}
		b, err := json.Marshal(rp.resultLine(defs))
		if err != nil {
			t.Fatal(err)
		}
		var line resultLine
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("%s: a metric name is defined twice", kind)
		}
		if len(line.Metrics) != len(listed) {
			t.Errorf("%s: result has %d metrics, BENCHMARK.json %d", kind, len(line.Metrics), len(listed))
		}
		for name, unit := range listed {
			if got, ok := line.Metrics[name]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not in the result", kind, name)
			} else if got.Unit != unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, name, got.Unit, unit)
			}
		}
	}
	e2e, per := map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		per[m.Name] = m.Unit
	}
	check("end_to_end", endToEndMetrics, e2e)
	check("per_layer", perLayerMetrics, per)
}

// smoke shrinks a workload to a 20-domain world for the unit tests; the
// shape (backend, sender policy, phase mix) is kept.
func (s spec) smoke() spec {
	s.domains, s.extraPeering = 20, s.extraPeering/8
	s.groups = 16
	if s.members > 5 {
		s.members = 5
	}
	if s.churnExtra > 3 {
		s.churnExtra = 3
	}
	s.sendersPerGroup, s.largeSendersPerGroup = 2, 1
	s.passes, s.flaps = 2, 2
	return s
}

var smokeBudget = budget{seconds: 0, minRounds: 2, maxRounds: 2, setups: 2, loopTarget: 2 * time.Millisecond, refWalks: 1}

// A 20-domain version of every workload replays clean on both seeds:
// nothing fails, and every packet reaches each member domain exactly once.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, sp := range workloads {
		for _, seed := range []int64{1998, 2026} {
			rp, err := runPlain(sp.smoke(), seed, smokeBudget)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if !rp.correct() {
				t.Errorf("%s seed %d: failed %v %v", sp.name, seed, rp.failed, rp.problems)
			}
			for _, d := range endToEndMetrics {
				if v := rp.metrics[d.name]; !(v > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", sp.name, seed, d.name, v)
				}
			}
		}
	}
}

// The traced run's ledger rows plus self time add up to the observed op
// time, deliveries per packet are exact, and the trace file loads.
func TestSmokeTraced(t *testing.T) {
	for _, sp := range workloads {
		sp = sp.smoke()
		out := filepath.Join(t.TempDir(), "trace.json")
		rp, err := runTraced(sp, 1998, smokeBudget, out)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rp.correct() {
			t.Errorf("%s: failed %v %v", sp.name, rp.failed, rp.problems)
		}
		if got := rp.metrics["core.deliveries_per_send"]; got != float64(sp.members) {
			t.Errorf("%s: %v deliveries per packet, want %d", sp.name, got, sp.members)
		}
		for _, d := range perLayerMetrics {
			if _, ok := rp.metrics[d.name]; !ok {
				t.Errorf("%s: %s not reported", sp.name, d.name)
			}
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Args struct{ ID, Parent int }
			} `json:"traceEvents"`
		}
		if err := readJSON(out, &trace); err != nil {
			t.Fatalf("%s: trace does not load: %v", sp.name, err)
		}
		if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Name != "run" || trace.TraceEvents[0].Args.Parent != -1 {
			t.Errorf("%s: trace does not start with the root span \"run\"", sp.name)
		}
		for _, e := range trace.TraceEvents[1:] {
			if e.Args.Parent < 0 || e.Args.Parent >= e.Args.ID {
				t.Errorf("%s: span %q (%d) has parent %d", sp.name, e.Name, e.Args.ID, e.Args.Parent)
			}
		}
	}
}

func TestLedgerSumsToObservedTime(t *testing.T) {
	o := opLedger{total: 1000}
	o.add("a", "", 2, 100)
	o.add("b", "", 0, 999) // a layer the op never enters adds no row
	o.add("c", "", 1.5, 200)
	o.close()
	sum := o.self
	for _, r := range o.rows {
		sum += r.count * r.unit
	}
	if len(o.rows) != 2 || sum != o.total || o.self != 500 {
		t.Errorf("rows %d, self %v, sum %v", len(o.rows), o.self, sum)
	}
}
