// Package scratchescape enforces the arena rule from the PR 4 answer
// pipeline: "Results never alias scratch". Slices carved from an
// arena.Arena (Make/MakeDirty) are valid only until the next Reset, and
// slices drawn from a pooled Scratch's buffer fields (pairBuf, work,
// queue, ...) are recycled by the next query — letting either escape
// into a Result, an EdgeMatches or any other public struct means the
// answer a caller holds is silently rewritten by the next request
// sharing the pool.
//
// Taint sources, tracked in source order through local variables:
//
//   - calls to slice-returning methods on a type named Arena (the bump
//     allocator in internal/arena);
//   - slice-typed field reads and slice-returning method calls on a
//     type named Scratch (the pooled engine working state) —
//     including re-slices like sc.pairBuf[:0] and append chains rooted
//     in them (appending into a scratch buffer keeps using its backing
//     array);
//
// Flagged sinks:
//
//   - returning a tainted slice from an exported function or method
//     (methods on the Scratch/Arena types themselves are exempt — they
//     are the scratch's own accessors);
//   - storing a tainted slice into a field of an exported struct type,
//     by assignment or composite literal.
//
// The remedy is the exact-size copy the rest of the codebase uses
// (dst := make([]T, len(buf)); copy(dst, buf)), which the tracker
// recognizes because it rebinds through owned storage; a case that is
// safe for a reason the analyzer cannot see carries
// //gvcheck:owns <why>.
package scratchescape

import (
	"go/ast"
	"go/types"

	"graphviews/internal/analysis"
)

// Analyzer is the scratchescape analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "scratchescape",
	Doc: "flags arena/Scratch-backed slices escaping into Results or other " +
		"public structs without an exact-size copy",
	Run: run,
}

// scratchTypeNames are the type names whose storage is recycled between
// queries: the bump allocator and the pooled scratch states built on it.
var scratchTypeNames = map[string]bool{"Arena": true, "Scratch": true}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
}

// scratchSource reports whether e draws storage directly from an arena
// or scratch: a slice-returning method call on Arena/Scratch, or a
// slice-typed field read on a Scratch.
func scratchSource(pass *analysis.Pass, e ast.Expr) (string, bool) {
	switch x := analysis.Unparen(e).(type) {
	case *ast.CallExpr:
		fn, recv, ok := pass.MethodCall(x)
		if !ok {
			return "", false
		}
		rt := pass.Info.Types[recv].Type
		if rt == nil {
			return "", false
		}
		named, ok := analysis.Named(rt)
		if !ok || !scratchTypeNames[named.Obj().Name()] {
			return "", false
		}
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() != 1 {
			return "", false
		}
		if _, isSlice := sig.Results().At(0).Type().Underlying().(*types.Slice); !isSlice {
			return "", false
		}
		return named.Obj().Name() + "." + fn.Name(), true
	case *ast.SelectorExpr:
		sel, ok := pass.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return "", false
		}
		named, ok := analysis.Named(sel.Recv())
		if !ok || named.Obj().Name() != "Scratch" {
			return "", false
		}
		if _, isSlice := sel.Obj().Type().Underlying().(*types.Slice); !isSlice {
			return "", false
		}
		return "Scratch." + sel.Obj().Name(), true
	}
	return "", false
}

// recvTypeName names fn's receiver type ("" for plain functions).
func recvTypeName(pass *analysis.Pass, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := pass.Info.Types[fn.Recv.List[0].Type].Type
	if t == nil {
		return ""
	}
	if named, ok := analysis.Named(t); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkFunc runs the ordered taint analysis over one function body.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	// The scratch's own accessors hand out scratch-backed slices by
	// design; everything downstream of them is what we check.
	selfAccessor := scratchTypeNames[recvTypeName(pass, fn)]
	exportedFn := fn.Name.IsExported() && !selfAccessor

	tainted := make(map[types.Object]string) // object → source label

	// taintOf resolves an expression under the current state: a direct
	// scratch source, a tainted variable, a re-slice of one, or an
	// append chain rooted in one (scratch buffers have spare capacity,
	// so append writes into the recycled backing array).
	var taintOf func(e ast.Expr) (string, bool)
	taintOf = func(e ast.Expr) (string, bool) {
		e = analysis.Unparen(e)
		if src, ok := scratchSource(pass, e); ok {
			return src, true
		}
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				if src, ok := tainted[obj]; ok {
					return src, true
				}
			}
		case *ast.SliceExpr:
			return taintOf(x.X)
		case *ast.CallExpr:
			if name, ok := pass.BuiltinCall(x); ok && name == "append" && len(x.Args) > 0 {
				return taintOf(x.Args[0])
			}
		}
		return "", false
	}

	objOf := func(id *ast.Ident) types.Object {
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}

	// exportedOwner reports whether a selection stores into a field of
	// an exported, non-scratch struct type.
	exportedOwner := func(recv types.Type) (string, bool) {
		named, ok := analysis.Named(recv)
		if !ok || !named.Obj().Exported() || scratchTypeNames[named.Obj().Name()] {
			return "", false
		}
		return named.Obj().Name(), true
	}

	w := &analysis.OrderedWalker{
		Expr: func(e ast.Expr) {
			lit, ok := e.(*ast.CompositeLit)
			if !ok {
				return
			}
			if _, isStruct := pass.StructLit(lit); !isStruct {
				return
			}
			tv := pass.Info.Types[lit]
			name, isPublic := exportedOwner(tv.Type)
			if !isPublic {
				return
			}
			for _, el := range lit.Elts {
				v := el
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					v = kv.Value
				}
				if src, bad := taintOf(v); bad && !pass.HasDirective(v.Pos(), "owns", "") {
					pass.Reportf(v.Pos(),
						"public struct literal %s retains a slice drawn from %s: scratch storage is "+
							"recycled by the next query; use an exact-size copy (make+copy) or annotate //gvcheck:owns",
						name, src)
				}
			}
		},
		Bind: func(lhs *ast.Ident, rhs ast.Expr) {
			obj := objOf(lhs)
			if obj == nil || lhs.Name == "_" {
				return
			}
			if rhs != nil && !pass.HasDirective(rhs.Pos(), "owns", "") {
				if src, ok := taintOf(rhs); ok {
					tainted[obj] = src
					return
				}
			}
			delete(tainted, obj)
		},
		Store: func(lhs ast.Expr, rhs ast.Expr) {
			sel, ok := analysis.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || rhs == nil {
				return
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return
			}
			name, isPublic := exportedOwner(selection.Recv())
			if !isPublic {
				return
			}
			if src, bad := taintOf(rhs); bad && !pass.HasDirective(rhs.Pos(), "owns", "") {
				pass.Reportf(rhs.Pos(),
					"storing a slice drawn from %s into public struct %s: scratch storage is recycled "+
						"by the next query; store an exact-size copy (make+copy) or annotate //gvcheck:owns",
					src, name)
			}
		},
		Return: func(st *ast.ReturnStmt) {
			if !exportedFn {
				return
			}
			for _, res := range st.Results {
				if src, bad := taintOf(res); bad && !pass.HasDirective(res.Pos(), "owns", "") {
					pass.Reportf(res.Pos(),
						"returning a slice drawn from %s from exported %s: scratch storage is recycled "+
							"by the next query; return an exact-size copy (make+copy) or annotate //gvcheck:owns",
						src, fn.Name.Name)
				}
			}
		},
	}
	w.Walk(fn.Body)
}
