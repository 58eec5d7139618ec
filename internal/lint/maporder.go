package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// MapOrder flags `range` statements over maps whose body lets the
// (randomized) iteration order escape: appending to a slice declared
// outside the loop, emitting an obs event, or writing to a
// message/encoder. A site is clean when the appended slice is sorted later
// in the same function (sort./slices.Sort*, or a module-local sort*/Sort*
// helper). There is no waiver: a finding is fixed by sorting.
func MapOrder(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		w := &mapOrderWalker{m: m, p: p}
		for _, f := range p.Files {
			w.walk(f, nil)
		}
		// Nested map ranges can attribute one escape to both loops; report
		// each site once.
		SortFindings(w.findings)
		out = append(out, slices.Compact(w.findings)...)
	}
	return out
}

// mapOrderWalker walks a package's files keeping track of the innermost
// enclosing function body, so append targets can be checked for a later
// sort call.
type mapOrderWalker struct {
	m        *Module
	p        *Package
	findings []Finding
}

func (w *mapOrderWalker) walk(n ast.Node, funcBody *ast.BlockStmt) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			w.walk(n.Body, n.Body)
		}
		return
	case *ast.FuncLit:
		w.walk(n.Body, n.Body)
		return
	case *ast.RangeStmt:
		w.checkRange(n, funcBody)
		w.walk(n.X, funcBody)
		w.walk(n.Body, funcBody)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		switch c := c.(type) {
		case *ast.FuncDecl, *ast.FuncLit, *ast.RangeStmt:
			w.walk(c, funcBody)
			return false
		}
		return true
	})
}

func (w *mapOrderWalker) checkRange(rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	tv, ok := w.p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.checkAppend(rs, funcBody, call)
		w.checkEventEmit(call)
		w.checkEncoderWrite(call)
		return true
	})
}

// checkAppend flags `x = append(x, ...)` inside a map-range body when x is
// declared outside the range statement (so iteration order escapes the
// loop) and is not sorted later in the enclosing function.
func (w *mapOrderWalker) checkAppend(rs *ast.RangeStmt, funcBody *ast.BlockStmt, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if b, ok := w.p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	obj := rootObject(w.p.Info, call.Args[0])
	if obj == nil {
		return
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return // per-iteration or per-key storage: order cannot escape
	}
	if w.sortedLater(funcBody, rs, obj) {
		return
	}
	w.findings = append(w.findings, Finding{"maporder", w.m.Position(call.Pos()),
		fmt.Sprintf("append to %q inside a map range leaks iteration order; sort the result or iterate sorted keys", types.ExprString(call.Args[0]))})
}

// checkEventEmit flags obs-event emission inside a map-range body: any
// call carrying an obs.Event or obs.Kind argument, or an Observer.Emit
// call, publishes in iteration order.
func (w *mapOrderWalker) checkEventEmit(call *ast.CallExpr) {
	emits := false
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Emit" {
		if fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			strings.HasSuffix(fn.Pkg().Path(), "internal/obs") {
			emits = true
		}
	}
	for _, arg := range call.Args {
		if t := w.p.Info.Types[arg].Type; t != nil && isObsType(t, "Event", "Kind") {
			emits = true
		}
	}
	if !emits {
		return
	}
	w.findings = append(w.findings, Finding{"maporder", w.m.Position(call.Pos()),
		"obs event emitted inside a map range publishes in iteration order; iterate sorted keys"})
}

// checkEncoderWrite flags writes to messages, encoders, or writers inside
// a map-range body (Write*/Fprint*/binary.Write), which serialize in
// iteration order.
func (w *mapOrderWalker) checkEncoderWrite(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	writes := false
	if fn, ok := w.p.Info.Uses[sel.Sel].(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		switch {
		case sig != nil && sig.Recv() != nil:
			switch name {
			case "Write", "WriteString", "WriteByte", "WriteRune", "AppendPayload":
				writes = true
			}
		case fn.Pkg() != nil:
			switch {
			case fn.Pkg().Path() == "fmt" && strings.HasPrefix(name, "Fprint"):
				writes = true
			case fn.Pkg().Path() == "encoding/binary" && name == "Write":
				writes = true
			}
		}
	}
	if !writes {
		return
	}
	w.findings = append(w.findings, Finding{"maporder", w.m.Position(call.Pos()),
		fmt.Sprintf("%s inside a map range serializes in iteration order; iterate sorted keys", name)})
}

// sortedLater reports whether obj is passed to a sort call after the range
// statement within the same enclosing function.
func (w *mapOrderWalker) sortedLater(funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if funcBody == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !w.isSortCall(call) {
			return true
		}
		if len(call.Args) > 0 && rootObject(w.p.Info, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}

// isSortCall recognizes the calls that establish a deterministic order:
// the sort and slices packages, plus module-local helpers named sort*/Sort*
// (the convention for shared comparators like sortRecords).
func (w *mapOrderWalker) isSortCall(call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ = w.p.Info.Uses[fun.Sel].(*types.Func)
	case *ast.Ident:
		fn, _ = w.p.Info.Uses[fun].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return true
		}
		return false
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	if fn.Pkg().Path() == w.m.Path || strings.HasPrefix(fn.Pkg().Path(), w.m.Path+"/") {
		return strings.HasPrefix(fn.Name(), "sort") || strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// rootObject resolves the variable at the base of an lvalue-ish
// expression: x, x.f.g, x[i] all resolve to x's object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			// For pkg.Var selectors the base is a package name; the
			// selected object is the storage.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isObsType reports whether t (or its element) is one of the named types
// from the internal/obs package.
func isObsType(t types.Type, names ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
