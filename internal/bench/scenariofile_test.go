package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mascbgmp/internal/scenario"
)

// writeScenario drops scenario-file bytes in a temp dir.
func writeScenario(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// smallScenario is a fast file scenario for runner tests.
func smallScenario(name string) string {
	return `name = "` + name + `"
description = "test scenario"
trials = 2

[topology]
kind = "as"
domains = 96
peering = 12

[workload]
kind = "zipf"
groups = 24
root-domains = 2
duration = "20m"
step = "1m"
events-per-step = 30
zipf-s = 1.4
zipf-v = 1.0
sends-per-group = 1
`
}

func TestLoadScenarioFileRunsWithoutGlobalState(t *testing.T) {
	path := writeScenario(t, "s.toml", smallScenario("filetest-zipf"))
	before := len(Suites())
	s, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatalf("LoadScenarioFile: %v", err)
	}
	if s.Name != "filetest-zipf" || s.DefaultTrials != 2 {
		t.Errorf("loaded %q trials=%d", s.Name, s.DefaultTrials)
	}
	// Loading is a parse, not a registration: the table is as it was and
	// the same file loads again.
	if _, ok := Lookup("filetest-zipf"); ok || len(Suites()) != before {
		t.Fatal("loading a scenario file changed the built-in table")
	}
	if _, err := LoadScenarioFile(path); err != nil {
		t.Fatalf("second load of the same file: %v", err)
	}

	// The -parallel 1 vs 8 determinism contract, through the real runner.
	a, err := RunSuite(s, Options{Trials: 4, Parallel: 1, Seed: 9})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	b, err := RunSuite(s, Options{Trials: 4, Parallel: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d := DeterministicDiff(a, b); d != "" {
		t.Fatalf("parallel 1 vs 8 differ: %s", d)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("result does not validate: %v", err)
	}
}

// A file may not take a built-in suite's name: -suite and the BENCH_*.json
// "suite" field would stop saying which workload ran.
func TestLoadScenarioFileRejectsDuplicates(t *testing.T) {
	before := len(Suites())
	for _, name := range []string{"workloads", "fig4-trees"} {
		path := writeScenario(t, "s.toml", smallScenario(name))
		_, err := LoadScenarioFile(path)
		if err == nil || !strings.Contains(err.Error(), "built-in") || !strings.Contains(err.Error(), name) {
			t.Fatalf("file named %q: err = %v, want a built-in name collision", name, err)
		}
	}
	if len(Suites()) != before {
		t.Fatal("a rejected load changed the built-in table")
	}
}

func TestLoadScenarioFileParseErrorHasLine(t *testing.T) {
	path := writeScenario(t, "bad.toml", "name = \"b\"\n[topology]\nkind = \"as\"\ndomains = \"lots\"\n[workload]\nkind = \"uniform\"\n")
	_, err := LoadScenarioFile(path)
	if err == nil {
		t.Fatal("bad file loaded")
	}
	pe, ok := err.(*scenario.ParseError)
	if !ok {
		t.Fatalf("error type %T, want *scenario.ParseError", err)
	}
	if pe.Line != 4 || !strings.Contains(err.Error(), "bad.toml:4:") {
		t.Errorf("error = %v, want bad.toml:4: position", err)
	}
}

// TestWorkloadsSuiteDeterministic runs the real workloads suite (one
// trial) at two parallelism levels. One trial is ~four engine runs at
// exemplar scale, so keep the count minimal.
func TestWorkloadsSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("workloads suite trial is relatively heavy")
	}
	a, err := RunSuite(builtin(t, "workloads"), Options{Trials: 1, Parallel: 1, Seed: 5})
	if err != nil {
		t.Fatalf("RunSuite(workloads): %v", err)
	}
	b, err := RunSuite(builtin(t, "workloads"), Options{Trials: 1, Parallel: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := DeterministicDiff(a, b); d != "" {
		t.Fatalf("workloads parallel 1 vs 8 differ: %s", d)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("workloads result invalid: %v", err)
	}
	// The acceptance invariant, visible in the recorded metrics too.
	for _, name := range []string{"diurnal_expansions", "diurnal_collapses"} {
		found := false
		for _, m := range a.Metrics {
			if m.Name == name {
				found = true
				if m.Mean < 1 {
					t.Errorf("%s mean = %v, want >= 1", name, m.Mean)
				}
			}
		}
		if !found {
			t.Errorf("metric %s missing from workloads result", name)
		}
	}
}
