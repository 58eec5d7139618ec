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

// TestBadFlagsExitTwo: a bad value is a usage error — exit 2 and one line
// on stderr naming the flag, not a rand.Intn panic (-domains 0) or a table
// of zeros with exit 0 (-trials 0). The removed knobs are unknown flags.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-domains", "0"}, "-domains must be at least 2"},
		{[]string{"-domains", "1"}, "-domains must be at least 2"},
		{[]string{"-trials", "0"}, "-trials must be at least 1"},
		{[]string{"-sizes", "5,x"}, `bad -sizes entry "x"`},
		{[]string{"-sizes", "5,0"}, `bad -sizes entry "0"`},
	} {
		code, out, errb := runCLI(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errb, tc.want) || strings.Count(errb, "\n") != 1 {
			t.Errorf("treesim %v: exit %d, stdout %q, stderr %q; want 2 and one line with %q",
				tc.args, code, out, errb, tc.want)
		}
	}
	for _, flag := range []string{"-parallel", "-fault-links", "-fault-loss"} {
		if code, _, errb := runCLI(flag, "1"); code != 2 || !strings.Contains(errb, "not defined") {
			t.Errorf("treesim %s 1: exit %d, stderr %q; want 2 as an unknown flag", flag, code, errb)
		}
	}
}

// TestSameSeedRunsAreByteIdentical: a small sweep twice — CSV, summary,
// counters and the -trace-out file must all agree byte for byte.
func TestSameSeedRunsAreByteIdentical(t *testing.T) {
	var text, trace [2]string
	for i := range text {
		path := filepath.Join(t.TempDir(), "spans.json")
		code, out, errb := runCLI("-domains", "300", "-peering", "30", "-trials", "2",
			"-sizes", "5,40", "-metrics", "-trace-out", path)
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, errb)
		}
		if !strings.HasPrefix(out, "receivers,uni_avg,") || strings.Count(out, "\n") != 3 {
			t.Fatalf("CSV is not a header plus two sizes:\n%s", out)
		}
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Fatalf("-trace-out: %v, %d bytes", err, len(data))
		}
		text[i], trace[i] = out+errb, string(data)
	}
	if text[0] != text[1] {
		t.Errorf("output differs between same-seed runs:\n%s\n%s", text[0], text[1])
	}
	if trace[0] != trace[1] {
		t.Error("-trace-out differs between same-seed runs")
	}
}
