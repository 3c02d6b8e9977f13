// Package closecheck enforces resource pairing on the trace plane's
// ownership protocols (DESIGN.md §14): a value obtained from an
// Acquire must be Released, a reader from OpenFile (trace.OpenFile)
// must be Closed, and an os.CreateTemp file must eventually be renamed
// into place or removed. A leaked handle pins its trace in the LRU
// cache forever; a leaked reader holds its file open; a leaked temp
// file fills the data directory.
//
// The check is per-function and presence-based with one path rule:
//
//   - The acquired variable must either reach a Release/Close call
//     (direct or deferred, including inside a deferred closure) or
//     escape the function — returned, passed to another call, or
//     stored in a composite — which transfers ownership.
//   - Assigning the result to _ is always a leak.
//   - When the release is deferred, a return statement between the
//     acquisition and the defer leaks the resource unless it is the
//     acquisition's own error path (a return inside an if whose
//     condition tests the error returned alongside the handle) or it
//     returns the resource itself.
//   - A function calling os.CreateTemp must contain an os.Rename or
//     os.Remove call (commit or cleanup; deferred closures count).
//
// Functions that release on some manual branch structure the checker
// cannot follow should restructure toward defer; the last-resort
// escape hatch is //bplint:ignore closecheck <why>.
package closecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"bpred/internal/analysis"
)

// Analyzer is the closecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc: "Acquire/Release, OpenFile/Close, and CreateTemp/Rename-or-Remove pairs " +
		"must balance on every path through a function",
	Run: run,
}

// pairs maps an acquiring method or function name to its releasing
// method.
var pairs = map[string]string{
	"Acquire":  "Release",
	"OpenFile": "Close",
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isOSCreateTemp(pass, sel) {
			if !mentionsCleanup(pass, body) {
				pass.Reportf(assign.Pos(),
					"temp file is neither renamed into place nor removed anywhere in this function")
			}
			return true
		}
		release, ok := pairs[sel.Sel.Name]
		if !ok || analysis.ReceiverPkgPath(pass.TypesInfo, sel) == "" {
			return true
		}
		checkAcquire(pass, body, assign, sel.Sel.Name, release)
		return true
	})
}

// isOSCreateTemp matches os.CreateTemp.
func isOSCreateTemp(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "CreateTemp" {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// mentionsCleanup reports whether body contains an os.Rename or
// os.Remove call.
func mentionsCleanup(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Rename" && sel.Sel.Name != "Remove" && sel.Sel.Name != "RemoveAll") {
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "os" {
			found = true
		}
		return !found
	})
	return found
}

// checkAcquire verifies one Acquire/OpenFile assignment.
func checkAcquire(pass *analysis.Pass, body *ast.BlockStmt, assign *ast.AssignStmt, acquire, release string) {
	lhs0, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return // stored straight into a structure: ownership escapes
	}
	if lhs0.Name == "_" {
		pass.Reportf(assign.Pos(),
			"result of %s is discarded: the resource can never be %sd", acquire, release)
		return
	}
	obj := objectOf(pass, lhs0)
	if obj == nil {
		return
	}
	var errObj types.Object
	if len(assign.Lhs) > 1 {
		if errID, ok := ast.Unparen(assign.Lhs[len(assign.Lhs)-1]).(*ast.Ident); ok {
			errObj = objectOf(pass, errID)
		}
	}

	uses := collectUses(pass, body, obj, release, assign.End())
	if !uses.released && !uses.escapes {
		pass.Reportf(assign.Pos(),
			"%s result is never %sd and never escapes this function: add defer %s.%s()",
			acquire, release, lhs0.Name, release)
		return
	}
	if uses.deferPos == token.NoPos {
		return // direct or escaping release: presence is all we check
	}
	// Deferred release: returns before the defer leak the resource
	// unless they are the acquisition's own error path or return the
	// resource.
	errSpans := errGuardSpans(pass, body, errObj)
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() <= assign.End() || ret.Pos() >= uses.deferPos {
			return true
		}
		if inSpans(ret.Pos(), errSpans) || mentionsObj(pass, ret, obj) {
			return true
		}
		pass.Reportf(ret.Pos(),
			"return between %s and its deferred %s leaks the resource: "+
				"move the defer directly after the error check", acquire, release)
		return true
	})
}

// useSummary aggregates how the acquired variable is used after the
// assignment.
type useSummary struct {
	released bool
	escapes  bool
	deferPos token.Pos // earliest deferred release, if any
}

// collectUses classifies every use of obj after pos.
func collectUses(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, release string, pos token.Pos) useSummary {
	var out useSummary
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok && id.Pos() > pos && pass.TypesInfo.Uses[id] == obj {
			classifyUse(id, stack, release, &out)
		}
		stack = append(stack, n)
		return true
	})
	return out
}

// classifyUse folds one identifier occurrence into the summary using
// its ancestor chain.
func classifyUse(id *ast.Ident, stack []ast.Node, release string, out *useSummary) {
	parent := func(i int) ast.Node {
		if len(stack) < i {
			return nil
		}
		return stack[len(stack)-i]
	}
	// v.Release() / v.Close(): the selector's X position.
	if sel, ok := parent(1).(*ast.SelectorExpr); ok && sel.X == id {
		if call, ok := parent(2).(*ast.CallExpr); ok && call.Fun == sel && sel.Sel.Name == release {
			out.released = true
			if dp := enclosingDefer(stack); dp != token.NoPos {
				if out.deferPos == token.NoPos || dp < out.deferPos {
					out.deferPos = dp
				}
			}
		}
		return // other method/field access: neutral
	}
	switch p := parent(1).(type) {
	case *ast.CallExpr:
		for _, a := range p.Args {
			if a == id {
				out.escapes = true // ownership handed to the callee
			}
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		out.escapes = true
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			out.escapes = true
		}
	case *ast.AssignStmt:
		for _, r := range p.Rhs {
			if r == id {
				out.escapes = true // aliased; track no further
			}
		}
	default:
		// A bare return inside errSpans etc; also idents under
		// ReturnStmt appear behind expression nodes — walk up for a
		// return ancestor.
		for i := 1; i <= len(stack); i++ {
			if _, ok := parent(i).(*ast.ReturnStmt); ok {
				out.escapes = true
				return
			}
		}
	}
}

// enclosingDefer returns the position of the nearest DeferStmt
// ancestor, or NoPos.
func enclosingDefer(stack []ast.Node) token.Pos {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.DeferStmt); ok {
			return d.Pos()
		}
	}
	return token.NoPos
}

// errGuardSpans returns the source extents of if-bodies whose
// condition tests errObj — the acquisition's own failure path, where
// no resource exists yet.
func errGuardSpans(pass *analysis.Pass, body *ast.BlockStmt, errObj types.Object) [][2]token.Pos {
	if errObj == nil {
		return nil
	}
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !mentionsObj(pass, ifs.Cond, errObj) {
			return true
		}
		spans = append(spans, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		return true
	})
	return spans
}

// inSpans reports whether pos falls inside any span.
func inSpans(pos token.Pos, spans [][2]token.Pos) bool {
	for _, s := range spans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// mentionsObj reports whether node references obj.
func mentionsObj(pass *analysis.Pass, node ast.Node, obj types.Object) bool {
	if node == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// objectOf resolves a defining or using identifier.
func objectOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
