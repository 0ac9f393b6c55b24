// Package snapshotpin enforces the one-snapshot-per-query invariant of the
// versioned store: within a single function body, flat.Store's Snapshot()
// may be loaded at most once.
//
// The store publishes immutable snapshots through an atomic pointer, and
// the whole torn-snapshot-freedom argument (DESIGN.md, "The versioned
// store") rests on each query pinning ONE snapshot and threading it by
// value; a second Snapshot() load in the same body can observe a different
// epoch, and any computation mixing the two sees a torn state the cache
// token logic cannot detect. Function literals count as their own bodies —
// a background loop that re-loads per iteration pins one snapshot per
// iteration, which is sound.
//
// Escape hatch: a `//lint:resnapshot <why>` annotation on (or directly
// above) the re-load, for the rare deliberate re-read such as a
// compare-and-retry loop.
package snapshotpin

import (
	"go/ast"
	"go/types"
	"strings"

	"prefsky/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "snapshotpin",
	Doc: "allow at most one flat.Store.Snapshot() load per function body; " +
		"a re-load can observe a torn epoch (annotate //lint:resnapshot to waive)",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// checkBody flags every Snapshot() load after the first within one body,
// not descending into nested function literals (they are their own bodies).
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	var first ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isStoreSnapshot(pass, call) {
			return true
		}
		if first == nil {
			first = call
			return true
		}
		if why, ok := pass.Annotated(call.Pos(), "resnapshot"); ok && why != "" {
			return true
		}
		pass.Reportf(call.Pos(),
			"second Store.Snapshot() load in one function body (first at %s) can observe a torn epoch; "+
				"thread the pinned snapshot by value, or annotate //lint:resnapshot with a justification",
			pass.Fset.Position(first.Pos()))
		return true
	})
}

// isStoreSnapshot reports whether call is a Snapshot() method call on the
// versioned columnar store (type Store in a package named/suffixed "flat").
func isStoreSnapshot(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Snapshot" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Store" || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "flat" || strings.HasSuffix(path, "/flat")
}
