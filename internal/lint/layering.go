package lint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// layerSpec declares one internal package's place in the import DAG: its
// layer (for upward-vs-undeclared messages) and the exact set of internal
// packages it may import.
type layerSpec struct {
	layer   int
	imports []string
}

// layerTable is the machine-readable form of the CLAUDE.md layering rule
// (low → high): addr, simclock, harness, topology, wire → obs → transport,
// bgp, masc, maas, faultinject → bgmp, liveness → migp (+ subpackages) → trees,
// experiments → core → bench → facade. Every internal package and every
// internal import edge must be declared here; adding a package or an edge
// is a deliberate one-line change reviewed with the code that needs it.
var layerTable = map[string]layerSpec{
	"internal/addr":     {layer: 0},
	"internal/simclock": {layer: 0},
	"internal/harness":  {layer: 0},
	"internal/topology": {layer: 0},
	"internal/lint":     {layer: 0},

	// The exemplar scenario files, embedded as data. Outside internal/
	// because the directory is also what `benchsuite -scenario` reads.
	"scenarios": {layer: 0},

	"internal/wire": {layer: 1, imports: []string{"internal/addr"}},

	// The declarative workload layer: scenario files and membership
	// generators. Sits directly above topology — it knows graphs and
	// membership, nothing about allocators or trees; the experiments
	// engine applies its op streams to protocol state.
	"internal/scenario": {layer: 1, imports: []string{"internal/topology"}},

	"internal/obs": {layer: 2, imports: []string{"internal/addr", "internal/wire"}},

	"internal/transport":   {layer: 3, imports: []string{"internal/obs", "internal/wire"}},
	"internal/bgp":         {layer: 3, imports: []string{"internal/addr", "internal/obs", "internal/simclock", "internal/wire"}},
	"internal/masc":        {layer: 3, imports: []string{"internal/addr", "internal/obs", "internal/simclock", "internal/wire"}},
	"internal/maas":        {layer: 3, imports: []string{"internal/addr", "internal/simclock"}},
	"internal/faultinject": {layer: 3, imports: []string{"internal/obs", "internal/simclock", "internal/wire"}},

	"internal/bgmp": {layer: 4, imports: []string{"internal/addr", "internal/bgp", "internal/obs", "internal/wire"}},

	// The fast-liveness detector sits beside bgmp: it rides the fault
	// plane (its own message class) and feeds core's session supervisor.
	"internal/liveness": {layer: 4, imports: []string{
		"internal/faultinject", "internal/obs", "internal/simclock", "internal/wire"}},

	"internal/migp": {layer: 5, imports: []string{"internal/addr", "internal/bgmp", "internal/topology", "internal/wire"}},

	// The pluggable forwarding planes sit beside migp: they build on bgmp
	// (shared-tree delegate, Target model) and the RIB types, and are wired
	// to the MIGP by core through migp's structural Border interface.
	"internal/dataplane": {layer: 5, imports: []string{
		"internal/addr", "internal/bgmp", "internal/bgp", "internal/obs", "internal/wire"}},

	// A shim for the frozen benchmark/, which spells DVMRP dvmrp.New();
	// everything else imports migp.
	"internal/migp/dvmrp": {layer: 6, imports: []string{"internal/migp"}},

	"internal/trees": {layer: 7, imports: []string{"internal/topology"}},

	"internal/experiments": {layer: 8, imports: []string{
		"internal/addr", "internal/dataplane", "internal/harness", "internal/masc",
		"internal/migp", "internal/obs", "internal/scenario", "internal/topology",
		"internal/trees", "internal/wire"}},

	"internal/core": {layer: 9, imports: []string{
		"internal/addr", "internal/bgmp", "internal/bgp", "internal/dataplane",
		"internal/faultinject", "internal/liveness", "internal/maas", "internal/masc",
		"internal/migp", "internal/obs", "internal/simclock", "internal/topology",
		"internal/transport", "internal/wire"}},

	"internal/bench": {layer: 10, imports: []string{
		"internal/core", "internal/dataplane", "internal/experiments",
		"internal/harness", "internal/obs", "internal/scenario", "scenarios"}},
}

// LayeringAnalyzer enforces the documented internal import DAG: every
// internal package must appear in the layering table and may only import
// the internal packages its table entry declares.
func LayeringAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "layering",
		Doc:  "enforce the documented low→high internal import DAG; fail on upward or undeclared imports",
		Run:  runLayering,
	}
}

func runLayering(m *Module, p *Package) []Finding {
	if !strings.HasPrefix(p.Rel, "internal/") {
		// The facade, cmd, and examples sit above every internal package
		// and may import any of them.
		return nil
	}
	spec, declared := layerTable[p.Rel]
	if !declared {
		pos := p.Path + ":1:1"
		if len(p.Files) > 0 {
			pos = m.Position(p.Files[0].Package)
		}
		return []Finding{{
			Analyzer: "layering",
			Pos:      pos,
			Package:  p.Path,
			Message:  fmt.Sprintf("internal package %s is not declared in the layering table; add it (and its allowed imports) to internal/lint/layering.go", p.Rel),
		}}
	}
	allowed := map[string]bool{}
	for _, imp := range spec.imports {
		allowed[imp] = true
	}
	var out []Finding
	for _, f := range p.Files {
		for _, spec2 := range f.Imports {
			ip, err := strconv.Unquote(spec2.Path.Value)
			if err != nil {
				continue
			}
			rel, local := m.relOf(ip)
			if !local {
				continue
			}
			if allowed[rel] {
				continue
			}
			if !strings.HasPrefix(rel, "internal/") {
				out = append(out, Finding{
					Analyzer: "layering",
					Pos:      m.Position(spec2.Pos()),
					Package:  p.Path,
					Message:  fmt.Sprintf("internal package %s imports %s above the internal tree; internal packages must not depend on the facade or command layer", p.Rel, ip),
				})
				continue
			}
			kind := "undeclared"
			if tgt, ok := layerTable[rel]; ok && tgt.layer >= spec.layer {
				kind = "upward"
			}
			out = append(out, Finding{
				Analyzer: "layering",
				Pos:      m.Position(spec2.Pos()),
				Package:  p.Path,
				Message: fmt.Sprintf("%s import: %s (layer %d) may not import %s; the DAG in internal/lint/layering.go declares its imports as [%s]",
					kind, p.Rel, spec.layer, rel, strings.Join(sortedStrings(spec.imports), " ")),
			})
		}
	}
	return out
}

// relOf converts a full import path to its module-relative form.
func (m *Module) relOf(importPath string) (rel string, local bool) {
	if importPath == m.Path {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, m.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
