package lint

import "testing"

// TestModuleIsClean is the self-enforcing gate: every analyzer must report
// zero findings on the real module, so `go test ./...` fails the moment a
// wall-clock call, layering violation, order-leaking map range or
// unguarded field access is introduced.
func TestModuleIsClean(t *testing.T) {
	m, err := Load("../..")
	if err != nil {
		t.Fatalf("Load module: %v", err)
	}
	findings := RunAnalyzers(m, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
	if len(findings) > 0 {
		t.Fatalf("%d lint finding(s); run `go run ./cmd/masclint ./...` and fix them", len(findings))
	}
}

// TestAnalyzerRegistry pins the analyzer set and name lookup.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"determinism", "guarded", "layering", "maporder"}
	as := Analyzers()
	if len(as) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if AnalyzerByName(a.Name) == nil {
			t.Errorf("AnalyzerByName(%q) = nil", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName(nope) should be nil")
	}
}

// TestSortFindings pins the deterministic output order.
func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Analyzer: "b", Pos: "x.go:2:1", Message: "m"},
		{Analyzer: "a", Pos: "x.go:2:1", Message: "m"},
		{Analyzer: "z", Pos: "a.go:1:1", Message: "m"},
	}
	SortFindings(fs)
	if fs[0].Pos != "a.go:1:1" || fs[1].Analyzer != "a" || fs[2].Analyzer != "b" {
		t.Errorf("unexpected order: %+v", fs)
	}
}
