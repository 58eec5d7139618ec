// Command masclint runs the repo's static-analysis pass (internal/lint)
// over the module: determinism (no wall-clock or global rand), layering
// (the documented internal import DAG), maporder (protocol map ranges
// must not leak iteration order) and guarded (mutex-guarded fields
// accessed only under their lock).
//
// Usage:
//
//	masclint [-C dir] [-json] [-list] [-<analyzer>]... [packages]
//
// With no analyzer flags every analyzer runs; -list prints the analyzer
// registry and exits. Package arguments are module-relative directory
// prefixes ("internal/bgp"); "./..." or no arguments means the whole
// module.
//
// Output ordering is stable: findings sort by (package, file, line,
// column, analyzer), so two runs over the same tree produce identical
// output — -json included — and diffs between runs are meaningful.
//
// Exit status: 0 no findings, 1 findings reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mascbgmp/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("masclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory inside the module to lint (go.mod is found upward)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (stably sorted by position)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	enabled := map[string]*bool{}
	for _, a := range lint.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, false, "run only the "+a.Name+" analyzer: "+a.Doc)
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: masclint [flags] [packages]\n\n"+
			"Packages are module-relative path prefixes; \"./...\" or none means all.\n"+
			"Exit status: 0 clean, 1 findings, 2 usage or load error.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var selected []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		selected = lint.Analyzers()
	}

	m, err := lint.Load(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "masclint: %v\n", err)
		return 2
	}

	findings := lint.RunAnalyzers(m, selected)
	findings = filterPackages(findings, m, fs.Args())

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "masclint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		if !*asJSON {
			fmt.Fprintf(stderr, "masclint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// filterPackages keeps findings whose package matches one of the
// module-relative prefix patterns. "./..." (or no patterns) matches all.
func filterPackages(fs []lint.Finding, m *lint.Module, patterns []string) []lint.Finding {
	var prefixes []string
	for _, pat := range patterns {
		if pat == "./..." || pat == "." || pat == "all" {
			return fs
		}
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimSuffix(pat, "/...")
		prefixes = append(prefixes, pat)
	}
	if len(prefixes) == 0 {
		return fs
	}
	var out []lint.Finding
	for _, f := range fs {
		rel := strings.TrimPrefix(f.Package, m.Path)
		rel = strings.TrimPrefix(rel, "/")
		for _, p := range prefixes {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
