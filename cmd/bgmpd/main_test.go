package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUnknownFlagExitsTwo: a flag bgmpd does not have is a usage error, and
// nothing is built.
func TestUnknownFlagExitsTwo(t *testing.T) {
	code, out, errb := runCLI("-metrics-port", "9090")
	if code != 2 || out != "" || !strings.Contains(errb, "flag provided but not defined: -metrics-port") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing on stdout and the flag named", code, out, errb)
	}
}

// TestScenarioDeliversTheSameTwice runs the Fig 1/3 scenario over loopback
// TCP twice: each run ends "done", and both report the same domains
// receiving each of the three packets.
func TestScenarioDeliversTheSameTwice(t *testing.T) {
	var runs [2][]string
	for i := range runs {
		code, out, errb := runCLI("-wait", "100ms")
		if code != 0 || !strings.HasSuffix(out, "done\n") {
			t.Fatalf("run %d: exit %d, stderr %q, stdout:\n%s", i+1, code, errb, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "received in:") {
				runs[i] = append(runs[i], line)
			}
		}
		if len(runs[i]) != 3 {
			t.Fatalf("run %d: %d \"received in:\" lines, want 3:\n%s", i+1, len(runs[i]), out)
		}
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Errorf("the runs delivered differently:\n%q\n%q", runs[0], runs[1])
	}
}
