package bench

import (
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// synthetic is a cheap suite whose output is a pure function of the
// trial seed — ideal for exercising the runner without real workloads.
func synthetic() Suite {
	return Suite{
		Name:          "synthetic",
		Description:   "test-only",
		DefaultTrials: 4,
		Metrics: []MetricDef{
			{Name: "draw", Better: Info},
			{Name: "cost", Better: Lower},
		},
		Trial: func(ctx TrialContext) (TrialOutput, error) {
			v := rand.New(rand.NewSource(ctx.Seed)).Float64()
			ctx.Obs.Emit(obs.Event{Kind: obs.MASCClaim, Domain: wire.DomainID(ctx.Index + 1)})
			return TrialOutput{
				Values: map[string]float64{"draw": v, "cost": v * 10},
				Rates:  map[string]float64{"draws": 1},
			}, nil
		},
	}
}

func TestRunScenarioDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) SuiteResult {
		res, err := RunSuite(synthetic(), Options{Trials: 16, Parallel: parallel, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if err := serial.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 0} {
		if diff := DeterministicDiff(serial, run(p)); diff != "" {
			t.Fatalf("parallel=%d diverged from serial: %s", p, diff)
		}
	}
	// The JSON bytes themselves must match modulo the volatile sections.
	a, _ := json.Marshal(StripVolatile(serial))
	b, _ := json.Marshal(StripVolatile(run(8)))
	if string(a) != string(b) {
		t.Fatalf("stripped JSON differs:\n%s\n%s", a, b)
	}
	// Counters aggregated across trials, one claim per trial.
	if serial.Counters["masc.claim"] != 16 {
		t.Fatalf("counters = %v, want masc.claim=16", serial.Counters)
	}
	if serial.Timing.Rates["draws_per_sec"] <= 0 {
		t.Fatalf("rates = %v", serial.Timing.Rates)
	}
}

func TestRunScenarioSeedPerturbs(t *testing.T) {
	a, _ := RunSuite(synthetic(), Options{Trials: 8, Seed: 1})
	b, _ := RunSuite(synthetic(), Options{Trials: 8, Seed: 2})
	if DeterministicDiff(a, b) == "" {
		t.Fatal("different suite seeds produced identical results")
	}
}

func TestRunScenarioTrialError(t *testing.T) {
	s := synthetic()
	boom := errors.New("boom")
	s.Trial = func(ctx TrialContext) (TrialOutput, error) { return TrialOutput{}, boom }
	if _, err := RunSuite(s, Options{Trials: 4}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunScenarioMissingMetric(t *testing.T) {
	s := synthetic()
	s.Trial = func(ctx TrialContext) (TrialOutput, error) {
		return TrialOutput{Values: map[string]float64{"draw": 1}}, nil // no "cost"
	}
	if _, err := RunSuite(s, Options{Trials: 2}); err == nil {
		t.Fatal("missing declared metric must error")
	}
}

func TestResultRoundTripAndValidate(t *testing.T) {
	res, err := RunSuite(synthetic(), Options{Trials: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_synthetic.json")
	if err := WriteFile(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diff := DeterministicDiff(res, back); diff != "" {
		t.Fatalf("round trip changed result: %s", diff)
	}
	if back.Env.GoVersion == "" || back.Timing.TotalWallNS <= 0 {
		t.Fatalf("volatile sections missing after round trip: %+v %+v", back.Env, back.Timing)
	}

	bad := res
	bad.Schema = "nope"
	if bad.Validate() == nil {
		t.Fatal("bad schema validated")
	}
	bad = res
	bad.Metrics = append([]MetricSummary(nil), res.Metrics...)
	bad.Metrics[0].Series = bad.Metrics[0].Series[:1]
	if bad.Validate() == nil {
		t.Fatal("truncated series validated")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base, err := RunSuite(synthetic(), Options{Trials: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	cur.Metrics = append([]MetricSummary(nil), base.Metrics...)

	// Within tolerance: clean.
	regs, err := Compare(base, cur, 0.10)
	if err != nil || len(regs) != 0 {
		t.Fatalf("self-compare: regs=%v err=%v", regs, err)
	}

	// "cost" (Better: Lower) grows 50%: flagged. "draw" (Info) grows too:
	// ignored.
	for i := range cur.Metrics {
		m := &cur.Metrics[i]
		m.Mean *= 1.5
	}
	regs, err = Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "cost" {
		t.Fatalf("regs = %v, want exactly [cost]", regs)
	}
	if regs[0].Delta < 0.45 || regs[0].Delta > 0.55 {
		t.Fatalf("delta = %v, want ~0.5", regs[0].Delta)
	}

	// A gated metric that vanished from the run is an error, not a
	// silent pass; a vanished Info metric is nobody's business.
	for _, tc := range []struct {
		drop    string
		wantErr bool
	}{{"cost", true}, {"draw", false}} {
		short := cur
		short.Metrics = nil
		for _, m := range base.Metrics {
			if m.Name != tc.drop {
				short.Metrics = append(short.Metrics, m)
			}
		}
		if _, err := Compare(base, short, 0.10); (err != nil) != tc.wantErr {
			t.Fatalf("run without %q: err = %v, want error %t", tc.drop, err, tc.wantErr)
		}
	}

	// Suite mismatch is an error, not a silent pass.
	other := cur
	other.Suite = "different"
	if _, err := Compare(base, other, 0.10); err == nil {
		t.Fatal("cross-suite compare must error")
	}
}

// builtin returns a suite from the table by name.
func builtin(t *testing.T, name string) Suite {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("no built-in suite %q", name)
	}
	return s
}

// TestSuitesTable: the table is what Lookup, -list and the baselines rely
// on — sorted, unique, exactly the seven built-ins, every suite runnable
// and every metric's direction one -compare understands.
func TestSuitesTable(t *testing.T) {
	want := []string{"chaos-detectors", "chaos-recovery", "dataplane-compare",
		"fig2-alloc", "fig4-trees", "scale-churn", "workloads"}
	suites := Suites()
	if len(suites) != len(want) {
		t.Fatalf("%d suites, want %d", len(suites), len(want))
	}
	for i, s := range suites {
		if s.Name != want[i] {
			t.Errorf("suite %d = %q, want %q (sorted, unique)", i, s.Name, want[i])
		}
		if got, ok := Lookup(s.Name); !ok || got.Name != s.Name {
			t.Errorf("Lookup(%q) = %q, %t", s.Name, got.Name, ok)
		}
		if s.Trial == nil || s.DefaultTrials < 1 || s.Description == "" || len(s.Metrics) == 0 {
			t.Errorf("suite %q is malformed: %+v", s.Name, s)
		}
		seen := map[string]bool{}
		for _, m := range s.Metrics {
			if m.Name == "" || seen[m.Name] {
				t.Errorf("suite %q: empty or duplicate metric %q", s.Name, m.Name)
			}
			seen[m.Name] = true
			if m.Better != Lower && m.Better != Higher && m.Better != Info {
				t.Errorf("suite %q metric %q: direction %q", s.Name, m.Name, m.Better)
			}
		}
	}
	// Suites hands out a copy: appending a loaded file to it must not
	// reach the table.
	_ = append(suites[:1], Suite{Name: "clobber"})
	if Suites()[1].Name != want[1] {
		t.Fatal("Suites() aliases the built-in table")
	}
}

func TestRunScenarioRejectsUnknownBackend(t *testing.T) {
	if _, err := RunSuite(synthetic(), Options{Trials: 1, Backend: "flooding"}); err == nil {
		t.Fatal("unknown backend must error")
	}
	// A valid backend reaches the trial context.
	s := synthetic()
	var seen string
	s.Trial = func(ctx TrialContext) (TrialOutput, error) {
		seen = ctx.Backend
		return TrialOutput{Values: map[string]float64{"draw": 0, "cost": 0}}, nil
	}
	if _, err := RunSuite(s, Options{Trials: 1, Backend: dataplane.BIERName}); err != nil {
		t.Fatal(err)
	}
	if seen != dataplane.BIERName {
		t.Fatalf("trial saw backend %q, want %q", seen, dataplane.BIERName)
	}
}

func TestChaosRecoverySuiteRuns(t *testing.T) {
	// The cheapest real suite end-to-end: JSON-valid, deterministic at
	// different parallelism.
	run := func(parallel int) SuiteResult {
		res, err := RunSuite(builtin(t, "chaos-recovery"), Options{Trials: 2, Parallel: parallel, Seed: 1998})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	if diff := DeterministicDiff(a, b); diff != "" {
		t.Fatalf("chaos-recovery diverged across parallelism: %s", diff)
	}
	for _, m := range a.Metrics {
		if m.Name == "recovered" && m.Mean != 1 {
			t.Fatalf("recovered mean = %v, want 1", m.Mean)
		}
	}
	if a.Counters["session.down"] == 0 {
		t.Fatalf("counters = %v, want session.down > 0", a.Counters)
	}
}
