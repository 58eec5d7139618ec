package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden expect.txt files from current analyzer output")

// TestGolden runs each fixture module under testdata/src through its
// analyzer (the fixture directory is named after the analyzer; "clean"
// runs all) and compares the rendered findings with expect.txt.
func TestGolden(t *testing.T) {
	fixtures := []struct {
		name      string
		analyzers []string // empty = all
	}{
		{"determinism", []string{"determinism"}},
		{"guarded", []string{"guarded"}},
		{"layering", []string{"layering"}},
		{"maporder", []string{"maporder"}},
		{"clean", nil},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.name)
			m, err := Load(dir)
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			var as []*Analyzer
			if len(fx.analyzers) == 0 {
				as = Analyzers()
			} else {
				for _, name := range fx.analyzers {
					a := AnalyzerByName(name)
					if a == nil {
						t.Fatalf("unknown analyzer %q", name)
					}
					as = append(as, a)
				}
			}
			var lines []string
			for _, f := range RunAnalyzers(m, as) {
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}

			expectFile := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(expectFile, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(expectFile)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", fx.name, got, want)
			}
		})
	}
}
