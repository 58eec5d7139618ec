package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time-package functions that read or wait on the
// wall clock. Everything that drives simulation logic must go through
// simclock.Clock instead, so same-seed runs replay identically.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// globalRandAllowed are the math/rand package-level functions that only
// construct explicit generators; everything else draws from the shared
// global source and is banned.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *Rand
}

// DefaultDeterminismAllowlist names the module-relative files whose job is
// real wall-clock time. Everything else must route time and randomness
// through simclock.Clock or an explicit *rand.Rand.
var DefaultDeterminismAllowlist = map[string]string{
	"internal/harness/harness.go": "benchmark harness: wall-clock trial timing is the deliverable",
	"internal/bench/run.go":       "benchmark result model: wall-clock suite timing is the deliverable",
	"internal/transport/track.go": "Quiesce bounds real goroutines with a wall-clock timeout",
	"cmd/bgmpd/main.go":           "interactive daemon demo paced in real time",
}

// DeterminismAnalyzer flags wall-clock time usage and global math/rand
// usage outside internal/simclock and the allowlisted files.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "flag time.Now/Sleep/Since/... and global math/rand use outside internal/simclock and allowlisted files",
		Run:  runDeterminism,
	}
}

func runDeterminism(m *Module, p *Package) []Finding {
	if p.Rel == "internal/simclock" {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if _, ok := DefaultDeterminismAllowlist[m.relFile(f.Pos())]; ok {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := selectorPackage(p.Info, sel)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkgPath {
			case "time":
				if wallClockFuncs[name] && isFuncObject(p.Info, sel.Sel) {
					out = append(out, Finding{
						Analyzer: "determinism",
						Pos:      m.Position(sel.Pos()),
						Package:  p.Path,
						Message:  fmt.Sprintf("time.%s reads the wall clock; route it through simclock.Clock (or allowlist this file in internal/lint/determinism.go)", name),
					})
				}
			case "math/rand", "math/rand/v2":
				if !globalRandAllowed[name] && isFuncObject(p.Info, sel.Sel) {
					out = append(out, Finding{
						Analyzer: "determinism",
						Pos:      m.Position(sel.Pos()),
						Package:  p.Path,
						Message:  fmt.Sprintf("rand.%s draws from the global source; use an explicit seeded *rand.Rand", name),
					})
				}
			}
			return true
		})
	}
	return out
}

// selectorPackage reports the import path of the package a selector's
// base identifier names, if it names a package at all.
func selectorPackage(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// isFuncObject reports whether the identifier resolves to a function (as
// opposed to a type, const, or var of the same package).
func isFuncObject(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Func)
	return ok
}
