package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"mascbgmp/internal/lint"
)

func fixture(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFindingsExitOne(t *testing.T) {
	code, out, errb := runCLI(t, "-C", fixture(t, "determinism"), "-determinism")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d findings, want 4:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, "[determinism]") {
			t.Errorf("unexpected finding line: %s", l)
		}
	}
	if !strings.Contains(errb, "4 finding(s)") {
		t.Errorf("stderr missing count: %q", errb)
	}
}

func TestAnalyzerSelection(t *testing.T) {
	// The determinism fixture is clean under every other analyzer.
	code, out, _ := runCLI(t, "-C", fixture(t, "determinism"), "-layering", "-maporder", "-guarded")
	if code != 0 || out != "" {
		t.Fatalf("exit = %d, out = %q; want clean run", code, out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runCLI(t, "-C", fixture(t, "maporder"), "-maporder", "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var fs []lint.Finding
	if err := json.Unmarshal([]byte(out), &fs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d findings, want 3", len(fs))
	}
	for _, f := range fs {
		if f.Analyzer != "maporder" || f.Pos == "" || f.Package == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestJSONByteIdenticalAcrossRuns: findings are stably sorted by position
// and the memoized cross-package state (the guard table) must not leak map
// order into the output. A clean tree prints "[]" whatever the order, so
// the runs are over fixtures that report several findings, every analyzer
// enabled.
func TestJSONByteIdenticalAcrossRuns(t *testing.T) {
	for _, name := range []string{"guarded", "maporder"} {
		_, first, _ := runCLI(t, "-C", fixture(t, name), "-json")
		_, second, _ := runCLI(t, "-C", fixture(t, name), "-json")
		if first != second || strings.TrimSpace(first) == "[]" {
			t.Errorf("%s: two runs differ or found nothing:\n%s\n%s", name, first, second)
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	code, out, _ := runCLI(t, "-C", fixture(t, "clean"), "-json")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("out = %q, want empty JSON array", out)
	}
}

func TestCleanExitZero(t *testing.T) {
	code, out, errb := runCLI(t, "-C", fixture(t, "clean"))
	if code != 0 || out != "" || errb != "" {
		t.Fatalf("exit = %d, out = %q, stderr = %q; want silent success", code, out, errb)
	}
}

func TestPackageFilter(t *testing.T) {
	code, out, _ := runCLI(t, "-C", fixture(t, "layering"), "-layering", "internal/wire")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "internal/wire") {
		t.Fatalf("filter kept wrong findings:\n%s", out)
	}

	// "./..." keeps everything.
	code, all, _ := runCLI(t, "-C", fixture(t, "layering"), "-layering", "./...")
	if code != 1 || len(strings.Split(strings.TrimSpace(all), "\n")) != 3 {
		t.Fatalf("./... filter dropped findings:\n%s", all)
	}
}

func TestLoadErrorExitTwo(t *testing.T) {
	code, _, errb := runCLI(t, "-C", filepath.Join(t.TempDir(), "nope"))
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "masclint:") {
		t.Errorf("stderr = %q, want load error", errb)
	}
}

func TestBadFlagExitTwo(t *testing.T) {
	code, _, _ := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
