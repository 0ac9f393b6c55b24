// Package atomicfield enforces all-or-nothing atomicity on struct fields:
// a field that is accessed through the sync/atomic functions anywhere in a
// package (atomic.AddInt64(&s.n, 1), atomic.LoadUint64(&s.v), ...) must
// never be read or written plainly in that package.
//
// A single plain access voids every atomic one — the race detector only
// catches it when a test happens to interleave, but the analyzer catches
// it always. The repo's own counters (service stats, tree-engine routing,
// flat.Store's snapshot pointer) migrated to the typed atomic.Int64 /
// atomic.Pointer wrappers, whose method-only API makes plain access
// inexpressible and which go vet's copylocks guards against copying; this
// analyzer keeps the old address-taken pattern from creeping back in
// half-converted form.
//
// The analysis is package-local (matching the x/tools facts-free shape);
// fields atomically accessed in one package and plainly in another would
// need cross-package facts, but every such field in this repo is
// unexported, so package scope is exactly field scope.
package atomicfield

import (
	"go/ast"
	"go/types"

	"prefsky/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "atomicfield",
	Doc: "a struct field accessed via sync/atomic functions must never be " +
		"read or written plainly in the same package",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	// Pass 1: collect fields whose address is taken inside a sync/atomic
	// call, remembering the sanctioned selector nodes and one example site
	// per field for the report.
	atomicFields := make(map[types.Object]ast.Node)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				unary, ok := arg.(*ast.UnaryExpr)
				if !ok {
					continue
				}
				sel, ok := unary.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if field := fieldObject(pass, sel); field != nil {
					sanctioned[sel] = true
					if _, seen := atomicFields[field]; !seen {
						atomicFields[field] = call
					}
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil, nil
	}

	// Pass 2: any other selector resolving to one of those fields is a
	// plain access.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			field := fieldObject(pass, sel)
			if field == nil {
				return true
			}
			if site, isAtomic := atomicFields[field]; isAtomic {
				pass.Reportf(sel.Pos(),
					"plain access to field %s, which is accessed atomically at %s; "+
						"every access must go through sync/atomic (or migrate the field to a typed atomic.Value wrapper)",
					field.Name(), pass.Fset.Position(site.Pos()))
			}
			return true
		})
	}
	return nil, nil
}

// isAtomicCall reports whether call invokes a function from sync/atomic.
func isAtomicCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// fieldObject resolves sel to a struct-field object, or nil.
func fieldObject(pass *framework.Pass, sel *ast.SelectorExpr) types.Object {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	return selection.Obj()
}
