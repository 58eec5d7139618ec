package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadFlagsExitTwo: a bad value is a usage error before any simulation
// runs — exit 2 and one line on stderr naming the flag.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-top", "0"}, "-top must be at least 1"},
		{[]string{"-children", "0"}, "-children must be at least 1"},
		{[]string{"-days", "0"}, "-days must be at least 1"},
		{[]string{"-days", "-3"}, "-days must be at least 1"},
		{[]string{"-fig", "3"}, `unknown -fig "3"`},
		{[]string{"-fig", "3", "-summary"}, `unknown -fig "3"`},
	} {
		code, out, errb := runCLI(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errb, tc.want) || strings.Count(errb, "\n") != 1 {
			t.Errorf("mascsim %v: exit %d, stdout %q, stderr %q; want 2 and one line with %q",
				tc.args, code, out, errb, tc.want)
		}
	}
}

// TestSameSeedRunsAreByteIdentical: a small hierarchy twice — series,
// summary, counters and both output files must agree byte for byte.
func TestSameSeedRunsAreByteIdentical(t *testing.T) {
	files := []string{"-trace-out", "-metrics-out"}
	var text [2]string
	var outs [2][]string
	for i := range text {
		dir := t.TempDir()
		args := []string{"-top", "4", "-children", "4", "-days", "40", "-fig", "2b", "-metrics"}
		for _, flag := range files {
			path := filepath.Join(dir, strings.TrimPrefix(flag, "-"))
			args = append(args, flag, path)
			outs[i] = append(outs[i], path)
		}
		code, out, errb := runCLI(args...)
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, errb)
		}
		if !strings.HasPrefix(out, "day,grib_avg,grib_max\n") || !strings.Contains(errb, "# steady state after day 10 ") {
			t.Fatalf("unexpected output:\n%s%s", out, errb)
		}
		text[i] = out + errb
	}
	if text[0] != text[1] {
		t.Errorf("output differs between same-seed runs:\n%s\n%s", text[0], text[1])
	}
	for k := range files {
		a, errA := os.ReadFile(outs[0][k])
		b, errB := os.ReadFile(outs[1][k])
		if errA != nil || errB != nil || len(a) == 0 {
			t.Fatalf("%s: read %v / %v, %d bytes", files[k], errA, errB, len(a))
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between same-seed runs", files[k])
		}
	}
}
