package bench

import (
	"path/filepath"
	"testing"
)

// TestCheckedInBaselinesReproduce re-runs each BENCH_*.json file's suite
// at its recorded trials and seed and requires the deterministic sections
// (metrics, counters, histograms) to come out byte-identical. This is what
// makes a refactor of the model or the protocol stack mechanical: "same
// behaviour" is this test passing with the files untouched.
func TestCheckedInBaselinesReproduce(t *testing.T) {
	for _, tc := range []struct {
		file string
		slow bool
	}{
		{file: "BENCH_scale.json"},
		{file: "BENCH_dataplane.json", slow: true}, // ~4 s: a BFS per packet
		{file: "BENCH_workloads.json"},
		{file: "BENCH_chaos.json"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow suite; run without -short")
			}
			base, err := ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunSuite(builtin(t, base.Suite), Options{Trials: base.Trials, Seed: base.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if diff := DeterministicDiff(base, res); diff != "" {
				t.Fatalf("%s no longer reproduces: %s", tc.file, diff)
			}
		})
	}
}
