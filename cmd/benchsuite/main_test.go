package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mascbgmp/internal/topology"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun runs the CLI and requires exit 0.
func mustRun(t *testing.T, args ...string) {
	t.Helper()
	if code, _, errb := runCLI(t, args...); code != 0 {
		t.Fatalf("benchsuite %s: exit %d\n%s", strings.Join(args, " "), code, errb)
	}
}

// TestParallelismIndependent: the same suite seed at two -parallel values
// must write schema-valid results that -diff calls equal (everything but
// the env and timing sections). The scenario-file row loads
// scenarios/diurnal.toml, whose trial also asserts the §4.3.3 round trip.
func TestParallelismIndependent(t *testing.T) {
	diurnal := filepath.Join("..", "..", "scenarios", "diurnal.toml")
	for _, tc := range []struct {
		name   string
		suite  []string
		trials string
		par    [2]string
		slow   bool
	}{
		{name: "fig2-alloc", suite: []string{"-suite", "fig2-alloc"}, trials: "2", par: [2]string{"1", "2"}, slow: true},
		{name: "dataplane-compare", suite: []string{"-suite", "dataplane-compare"}, trials: "2", par: [2]string{"1", "2"}, slow: true},
		{name: "workloads", suite: []string{"-suite", "workloads"}, trials: "1", par: [2]string{"1", "2"}},
		{name: "scenario-file", suite: []string{"-scenario", diurnal}, trials: "1", par: [2]string{"1", "8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("multi-second suite; run without -short")
			}
			dir := t.TempDir()
			a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
			mustRun(t, append(tc.suite, "-trials", tc.trials, "-parallel", tc.par[0], "-out", a)...)
			mustRun(t, append(tc.suite, "-trials", tc.trials, "-parallel", tc.par[1], "-out", b)...)
			mustRun(t, "-validate", a)
			code, out, errb := runCLI(t, "-diff", a, b)
			if code != 0 || !strings.Contains(out, "results match") {
				t.Fatalf("-diff: exit %d\n%s%s", code, out, errb)
			}
		})
	}
}

// TestScenarioFileJoinsTheList: -scenario adds the file's suite to this
// invocation's -list (after the built-ins) and to nothing else — the next
// invocation lists the built-ins alone, and an unknown -suite is exit 2.
func TestScenarioFileJoinsTheList(t *testing.T) {
	diurnal := filepath.Join("..", "..", "scenarios", "diurnal.toml")
	code, with, errb := runCLI(t, "-scenario", diurnal, "-list")
	if code != 0 {
		t.Fatalf("-scenario -list: exit %d\n%s", code, errb)
	}
	_, without, _ := runCLI(t, "-list")
	if !strings.HasPrefix(with, without) || !strings.HasPrefix(with[len(without):], "diurnal ") {
		t.Fatalf("-list with the file is not the built-in list plus diurnal:\n%s", with[len(without):])
	}
	if strings.Contains(without, "\ndiurnal ") {
		t.Fatal("a loaded scenario outlived its invocation")
	}
	if code, _, errb := runCLI(t, "-suite", "diurnal"); code != exitUsage || !strings.Contains(errb, "unknown suite") {
		t.Fatalf("-suite diurnal without the file: exit %d, stderr %q", code, errb)
	}
}

// TestBadScenarioFileExitsTwo: an unparseable scenario is a usage error
// (exit 2, not the outcome/schema codes 1 and 3) and the message points
// at the offending file:line, so a CI failure names the bad key.
func TestBadScenarioFileExitsTwo(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.toml")
	err := os.WriteFile(bad, []byte(`name = "bad"
[topology]
kind = "as"
domains = "lots"
[workload]
kind = "uniform"
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	code, _, errb := runCLI(t, "-scenario", bad)
	if code != exitUsage {
		t.Fatalf("exit = %d, want %d\n%s", code, exitUsage, errb)
	}
	if !strings.Contains(errb, "bad.toml:4:") {
		t.Fatalf("stderr does not point at bad.toml:4: %q", errb)
	}
}

// TestTopologyFileScenario: a generated topology file feeds a file-kind
// scenario end to end, the path resolved relative to the scenario file.
// The edge list is what `topogen -kind as -n 200 -peering 24 -seed 7 -out
// net.topo` writes.
func TestTopologyFileScenario(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "net.topo"))
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.WriteEdgeList(f, topology.ASGraph(200, 24, 7), "as"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "filed.toml")
	err = os.WriteFile(spec, []byte(`name = "cli-filed"
description = "topology-file pipeline smoke"
trials = 1
[topology]
kind = "file"
path = "net.topo"
[workload]
kind = "uniform"
groups = 16
root-domains = 2
duration = "10m"
step = "1m"
events-per-step = 20
sends-per-group = 1
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "filed.json")
	mustRun(t, "-scenario", spec, "-out", out)
	mustRun(t, "-validate", out)
}
