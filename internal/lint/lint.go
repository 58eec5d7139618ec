// Package lint is the repo's stdlib-only static-analysis pass. It loads
// the module with go/parser + go/types (resolving the standard library
// through the source importer, so no x/tools dependency) and enforces the
// invariants the paper reproduction depends on but that previously lived
// only as prose in CLAUDE.md:
//
//   - determinism: no wall-clock (time.Now/Sleep/Since/...) or global
//     math/rand calls outside internal/simclock and a short allowlist of
//     files whose job is real time (benchmark timing, Quiesce's timeout);
//   - layering: the documented low→high internal import DAG (addr,
//     simclock, harness, topology, wire → transport, bgp, masc, maas,
//     migp, bgmp → trees, experiments → core → bench → facade) — every
//     internal import edge must be declared in the layering table;
//   - maporder: no `range` over a map in a protocol package whose body
//     lets iteration order escape (appending to an outer slice, emitting
//     an obs event, writing to a message/encoder) unless the result is
//     sorted afterwards;
//   - guarded: a field annotated `// guarded by <mu>` is touched only in
//     functions that lock that mutex or are named *Locked.
//
// Each is something neither a run nor the compiler can see: a randomised
// map order or a field read without its lock does not fail a test.
// Quantities a test can measure (allocations per packet, the wire type
// registry, spans left open) are held by tests, and what a type can check
// (an obs name is an enum value, not a string) by types, not here.
//
// The analyzers run over every non-test file of the module; cmd/masclint
// is the CLI and lint_test.go keeps `go test ./...` self-enforcing.
package lint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Pos is the module-relative "file:line:col" position.
	Pos string `json:"pos"`
	// Package is the import path of the offending package.
	Package string `json:"package"`
	// Message describes the violation and how to fix it.
	Message string `json:"message"`
}

// String renders the finding as one grep-friendly line.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Run is called once per loaded
// package, in dependency order.
type Analyzer struct {
	// Name is the analyzer's short identifier (the -<name> flag of
	// cmd/masclint).
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(m *Module, p *Package) []Finding
}

// Analyzers returns all registered analyzers in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		GuardedAnalyzer(),
		LayeringAnalyzer(),
		MapOrderAnalyzer(),
	}
}

// AnalyzerByName returns the analyzer with the given name, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies every analyzer to every package of the module and
// returns the findings sorted by (position, analyzer).
func RunAnalyzers(m *Module, as []*Analyzer) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		for _, a := range as {
			out = append(out, a.Run(m, p)...)
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by position (file, then numeric line and
// column) then analyzer name, so output is deterministic regardless of
// analyzer interleaving.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if c := comparePos(fs[i].Pos, fs[j].Pos); c != 0 {
			return c < 0
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}

// comparePos orders "file:line:col" strings with numeric line/col.
func comparePos(a, b string) int {
	af, al, ac := splitPos(a)
	bf, bl, bc := splitPos(b)
	switch {
	case af != bf:
		return strings.Compare(af, bf)
	case al != bl:
		return al - bl
	default:
		return ac - bc
	}
}

func splitPos(pos string) (file string, line, col int) {
	file = pos
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		col, _ = strconv.Atoi(file[i+1:])
		file = file[:i]
	}
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		line, _ = strconv.Atoi(file[i+1:])
		file = file[:i]
	}
	return file, line, col
}
