package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke is the short sweep the determinism checks run: one lossy point and
// a 90 s crash.
var smoke = []string{"-loss", "0.1", "-packets", "5", "-crash", "90s"}

// runSmoke runs the CLI in-process with the smoke flags plus extra,
// requires exit 0 and a recovered point, and returns the CSV followed by the
// stderr summary.
func runSmoke(t *testing.T, extra ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(append([]string{}, smoke...), extra...), &out, &errb); code != 0 {
		t.Fatalf("chaossim %s: exit %d\n%s", strings.Join(extra, " "), code, errb.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(out.String()), ",true") {
		t.Fatalf("point did not recover:\n%s", out.String())
	}
	return out.String() + errb.String()
}

// TestSameSeedRunsAreByteIdentical: two same-seed runs must agree byte for
// byte under both failure detectors (hold timers alone, and the
// fast-liveness plane with its sub-second probe cadence), and so must the
// Chrome trace JSON and the Prometheus exposition — the causal span trees
// (detect → failover → reroute) are part of the deterministic surface.
func TestSameSeedRunsAreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
		files []string // flags that take an output file to compare as well
	}{
		{name: "hold-timer"},
		{name: "liveness", extra: []string{"-liveness"}},
		{name: "trace-and-metrics-out", files: []string{"-trace-out", "-metrics-out"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var text [2]string
			var outs [2][]string
			for i := range text {
				dir := t.TempDir()
				args := append([]string{}, tc.extra...)
				for _, flag := range tc.files {
					path := filepath.Join(dir, strings.TrimPrefix(flag, "-"))
					args = append(args, flag, path)
					outs[i] = append(outs[i], path)
				}
				text[i] = runSmoke(t, args...)
			}
			if text[0] != text[1] {
				t.Errorf("output differs between same-seed runs:\n%s\n%s", text[0], text[1])
			}
			for k := range outs[0] {
				a, errA := os.ReadFile(outs[0][k])
				b, errB := os.ReadFile(outs[1][k])
				if errA != nil || errB != nil || len(a) == 0 {
					t.Fatalf("%s: read %v / %v, %d bytes", tc.files[k], errA, errB, len(a))
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s differs between same-seed runs", tc.files[k])
				}
			}
		})
	}
}

func TestUnknownBackendExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "bogus"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "unknown -backend") {
		t.Fatalf("exit %d, stderr %q; want 2 and the valid names", code, errb.String())
	}
}

// The sweep is a plain loop: there is no inner pool to size.
func TestParallelFlagIsGone(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-parallel", "2"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "not defined") {
		t.Fatalf("exit %d, stderr %q; want 2 as an unknown flag", code, errb.String())
	}
}
