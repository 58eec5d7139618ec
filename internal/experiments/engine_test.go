package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"mascbgmp/internal/scenario"
	"mascbgmp/internal/topology"
	"mascbgmp/scenarios"
)

// builtinSpec parses one of the checked-in scenarios/*.toml files.
func builtinSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse("scenarios/"+name+".toml", scenarios.TOML(name))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunWorkloadDeterministic(t *testing.T) {
	for _, name := range scenarios.Names() {
		spec := builtinSpec(t, name)
		// Shrink for test speed; determinism does not depend on scale.
		spec.Topology.Domains, spec.Topology.Peering = 128, 16
		w := &spec.Workload
		w.Duration = 20 * w.Step
		if w.Kind == scenario.KindDiurnal {
			w.Period = 16 * w.Step
			w.Groups, w.PeakGroups = 24, 24
		}
		if w.Kind == scenario.KindFlashCrowd {
			w.Ramp, w.Hold = 6*w.Step, 6*w.Step
			w.PeakMembers = 60
		}
		t.Run(name, func(t *testing.T) {
			a, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 11})
			if err != nil {
				t.Fatalf("RunWorkload: %v", err)
			}
			bres, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if a != bres {
				t.Fatalf("same seed, different results:\n%+v\n%+v", a, bres)
			}
			if a.Joins == 0 {
				t.Fatal("workload produced no joins")
			}
			c, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 12})
			if err != nil {
				t.Fatal(err)
			}
			if a == c {
				t.Fatal("different seeds produced identical results")
			}
		})
	}
}

// TestDiurnalDrivesExpandAndCollapse is the issue's round-trip check:
// over two simulated days the demand wave must push the root allocators
// through at least one 75%-target prefix doubling on the way up and at
// least one empty-prefix release (collapse) in the trough — driven
// purely by the workload, with no direct allocator manipulation.
func TestDiurnalDrivesExpandAndCollapse(t *testing.T) {
	spec := builtinSpec(t, "diurnal")
	res, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 1})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.Expansions < 1 {
		t.Errorf("Expansions = %d, want >= 1 prefix doubling on the demand ramp", res.Expansions)
	}
	if res.Collapses < 1 {
		t.Errorf("Collapses = %d, want >= 1 drained-prefix release in the trough", res.Collapses)
	}
	if res.OccMax < 0.75 {
		t.Errorf("OccMax = %.3f, want >= 0.75 (wave never reached the doubling target)", res.OccMax)
	}
	if res.OccTrough >= 0.75 {
		t.Errorf("OccTrough = %.3f, want < 0.75 (occupancy never receded)", res.OccTrough)
	}
	if res.LeaseFailures != 0 {
		t.Errorf("LeaseFailures = %d, want 0 (224/4 cannot run out here)", res.LeaseFailures)
	}
}

// TestFlashCrowdFanIn: a crowd converging on few groups must aggregate
// joins — the root sees far fewer grafts than members joined.
func TestFlashCrowdFanIn(t *testing.T) {
	spec := builtinSpec(t, "flash-crowd")
	res, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 1})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.FanIn < 4 {
		t.Errorf("FanIn = %.2f, want >= 4 (join aggregation should absorb most of the crowd)", res.FanIn)
	}
	// 4 hot groups × 900 peak members ride on top of the background
	// churn; by the last step the crowd (and only the crowd) is gone.
	if res.MembersPeak < 3600 {
		t.Errorf("MembersPeak = %d, want >= 3600 (crowd never materialized)", res.MembersPeak)
	}
	if res.MembersPeak-res.MembersFinal < 2000 {
		t.Errorf("MembersPeak = %d vs final %d: crowd did not drain", res.MembersPeak, res.MembersFinal)
	}
}

// TestAffinityCompactsTrees: topology-correlated membership must build
// smaller trees than uniform-domain membership at the same event volume
// (zipf and affinity share group count, duration, and event rate).
func TestAffinityCompactsTrees(t *testing.T) {
	aff := builtinSpec(t, "affinity")
	zipf := builtinSpec(t, "zipf")
	ra, err := RunWorkload(WorkloadConfig{Spec: aff, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rz, err := RunWorkload(WorkloadConfig{Spec: zipf, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ra.MeanTreeSize >= rz.MeanTreeSize {
		t.Errorf("affinity mean tree %.2f >= zipf %.2f; locality should compact trees",
			ra.MeanTreeSize, rz.MeanTreeSize)
	}
}

func TestRunWorkloadFileTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.topo")
	g := topology.ASGraph(64, 8, 5)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.WriteEdgeList(f, g, "as"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec := scenario.Spec{
		Name:     "filed",
		Trials:   1,
		Topology: scenario.TopologySpec{Kind: "file", Path: path},
		Workload: scenario.WorkloadSpec{Kind: scenario.KindUniform,
			Groups: 8, RootDomains: 2, Duration: 10, Step: 1,
			EventsPerStep: 40, SendsPerGroup: 1, AddressesPerGroup: 1,
			ClaimLifetime: 1 << 40},
	}
	res, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 2})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.Joins == 0 || res.Packets == 0 {
		t.Errorf("file-topology run did nothing: %+v", res)
	}

	spec.Topology.Path = filepath.Join(dir, "missing.topo")
	if _, err := RunWorkload(WorkloadConfig{Spec: spec, Seed: 2}); err == nil {
		t.Error("missing topology file did not error")
	}
}

// TestRunWorkloadMatchesChurnStream: the uniform generator through the
// engine and the churn workload consume the same rng discipline; this
// guards the refactor that routed churn through scenario.Uniform.
func TestChurnRefactorPinsMetrics(t *testing.T) {
	cfg := ChurnConfig{Domains: 200, ExtraPeering: 30, Groups: 50,
		RootDomains: 4, Events: 2000, BlockSize: 16, SendsPerGroup: 2, Seed: 7}
	a := RunChurn(cfg)
	b := RunChurn(cfg)
	if a != b {
		t.Fatalf("churn not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Joins+a.Leaves != cfg.Events {
		t.Errorf("joins+leaves = %d, want every one of %d events applied", a.Joins+a.Leaves, cfg.Events)
	}
}
