package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath enforces allocation discipline on functions annotated with a
// //tb:hotpath doc-comment directive — the simulator event loop, the
// checker frontier walk, the OnlineStats fold, and whatever future code
// opts in. Inside a marked function:
//
//   - no fmt.* calls: formatting allocates and drags reflection into the
//     loop; cold error paths must be extracted into unmarked helpers.
//   - no boxing into interface{}/any: converting a non-pointer-shaped
//     concrete value (int, string, struct, slice, ...) to an interface
//     heap-allocates. Pointer-shaped values (*T, chan, map, func) and
//     zero-size values (struct{}, [0]T) convert without allocating and are
//     allowed.
//   - no escaping closures over loop variables: since Go 1.22 each
//     iteration's variable is distinct, so a closure that outlives the
//     loop body forces a heap allocation per iteration.
//
// The check is intraprocedural by design: a marked function may call
// unmarked helpers, which keeps cold paths out of the hot function's
// body and its inlining budget — exactly the refactor the analyzer is
// meant to force.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid fmt calls, interface boxing, and escaping loop-variable closures in //tb:hotpath functions",
	Run:  runHotpath,
}

// hotpathMarker is the doc-comment line that opts a function in.
const hotpathMarker = "tb:hotpath"

// isHotpath reports whether the doc group carries the marker directive.
func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == hotpathMarker {
			return true
		}
	}
	return false
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd.Doc) {
				continue
			}
			h := &hotwalker{pass: pass, fname: fd.Name.Name, immediate: map[*ast.FuncLit]bool{}}
			h.walkBody(fd.Body, pass.Pkg.Info.Defs[fd.Name].Type().(*types.Signature), nil)
		}
	}
}

// hotwalker walks one marked function, tracking the enclosing signature
// (for return-statement boxing) and the loop variables in scope (for
// escaping-closure detection).
type hotwalker struct {
	pass  *Pass
	fname string
	// immediate marks function literals that are invoked in place
	// (CallExpr.Fun); they run within the iteration and never escape.
	immediate map[*ast.FuncLit]bool
}

// walkBody checks one function body. sig is the body's own signature;
// loopVars maps the loop variables of enclosing loops within the marked
// function.
func (h *hotwalker) walkBody(body *ast.BlockStmt, sig *types.Signature, loopVars map[types.Object]bool) {
	info := h.pass.Pkg.Info
	var walk func(n ast.Node, loopVars map[types.Object]bool) bool
	walk = func(n ast.Node, loopVars map[types.Object]bool) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// An immediately-invoked literal runs within the iteration and
			// never escapes; anything else (stored, passed, deferred,
			// go'ed) is treated as escaping, and its captures of enclosing
			// loop variables are reported here, once per variable. Either
			// way the body is walked with the literal's own signature.
			litSig, ok := info.Types[n].Type.(*types.Signature)
			if !ok {
				return false
			}
			if h.immediate[n] {
				h.walkBody(n.Body, litSig, loopVars)
				return false
			}
			if len(loopVars) > 0 {
				for _, id := range capturedLoopVars(info, n, loopVars) {
					h.pass.Reportf(id.Pos(), "closure in //tb:hotpath function %s captures loop variable %q, forcing a per-iteration heap allocation; hoist the variable or restructure the loop", h.fname, id.Name)
				}
			}
			h.walkBody(n.Body, litSig, nil)
			return false
		case *ast.RangeStmt:
			inner := loopVars
			if n.Tok == token.DEFINE {
				inner = extendLoopVars(info, inner, n.Key, n.Value)
			}
			if n.X != nil {
				walkNode(n.X, loopVars, walk)
			}
			walkNode(n.Body, inner, walk)
			return false
		case *ast.ForStmt:
			inner := loopVars
			if as, ok := n.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				exprs := make([]ast.Expr, len(as.Lhs))
				copy(exprs, as.Lhs)
				inner = extendLoopVars(info, inner, exprs...)
			}
			if n.Init != nil {
				walkNode(n.Init, loopVars, walk)
			}
			if n.Cond != nil {
				walkNode(n.Cond, inner, walk)
			}
			if n.Post != nil {
				walkNode(n.Post, inner, walk)
			}
			walkNode(n.Body, inner, walk)
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				h.immediate[lit] = true
			}
			h.checkCall(n)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if lt := info.TypeOf(n.Lhs[i]); lt != nil {
						h.checkBox(n.Rhs[i], lt)
					}
				}
			}
		case *ast.ReturnStmt:
			results := sig.Results()
			if len(n.Results) == results.Len() {
				for i, res := range n.Results {
					h.checkBox(res, results.At(i).Type())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				h.checkBox(n.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			h.checkCompositeLit(n)
		}
		return true
	}
	walkNode(body, loopVars, walk)
}

// walkNode runs walk over n, threading the loop-variable scope.
func walkNode(n ast.Node, loopVars map[types.Object]bool, walk func(ast.Node, map[types.Object]bool) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		return walk(m, loopVars)
	})
}

// extendLoopVars returns base extended with the objects defined by the
// given loop-variable expressions.
func extendLoopVars(info *types.Info, base map[types.Object]bool, exprs ...ast.Expr) map[types.Object]bool {
	out := map[types.Object]bool{}
	for o := range base {
		out[o] = true
	}
	for _, e := range exprs {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// capturedLoopVars returns the identifiers inside lit that reference loop
// variables from the enclosing scopes, one per distinct variable.
func capturedLoopVars(info *types.Info, lit *ast.FuncLit, loopVars map[types.Object]bool) []*ast.Ident {
	seen := map[types.Object]bool{}
	var out []*ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj != nil && loopVars[obj] && !seen[obj] {
			seen[obj] = true
			out = append(out, id)
		}
		return true
	})
	return out
}

// checkCall reports fmt calls and boxing at call boundaries (arguments,
// conversions, append into interface-element slices).
func (h *hotwalker) checkCall(call *ast.CallExpr) {
	info := h.pass.Pkg.Info
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			h.pass.Reportf(call.Pos(), "call to fmt.%s in //tb:hotpath function %s; extract the cold path into an unmarked helper", fn.Name(), h.fname)
		}
	}
	// Conversion: T(x) where T is an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			h.checkBox(call.Args[0], tv.Type)
		}
		return
	}
	// Builtins: only append can box (into a []any-style slice).
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" && call.Ellipsis == 0 && len(call.Args) > 1 {
				if sl, ok := info.TypeOf(call).Underlying().(*types.Slice); ok {
					for _, arg := range call.Args[1:] {
						h.checkBox(arg, sl.Elem())
					}
				}
			}
			return
		}
	}
	sig, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != 0 {
				continue // s... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		h.checkBox(arg, pt)
	}
}

// checkCompositeLit reports boxing of elements into interface-typed
// slots of struct, slice, array, and map literals.
func (h *hotwalker) checkCompositeLit(lit *ast.CompositeLit) {
	t := h.pass.Pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				h.checkBox(kv.Value, h.pass.Pkg.Info.TypeOf(kv.Key)) // the key resolves to its field
			} else if i < u.NumFields() {
				h.checkBox(e, u.Field(i).Type())
			}
		}
	case *types.Slice:
		h.checkLitElems(lit, u.Elem())
	case *types.Array:
		h.checkLitElems(lit, u.Elem())
	case *types.Map:
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				h.checkBox(kv.Key, u.Key())
				h.checkBox(kv.Value, u.Elem())
			}
		}
	}
}

func (h *hotwalker) checkLitElems(lit *ast.CompositeLit, elem types.Type) {
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		h.checkBox(e, elem)
	}
}

// gcSizes lays types out as gc does; zero size is the same on every arch.
var gcSizes = types.SizesFor("gc", "amd64")

// checkBox reports expr if assigning it to a slot of type dst boxes a
// concrete non-pointer-shaped, non-zero-size value into an interface.
func (h *hotwalker) checkBox(expr ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	src := h.pass.Pkg.Info.TypeOf(expr)
	if src == nil {
		return
	}
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch src.Underlying().(type) {
	case *types.Interface:
		return // interface-to-interface carries the existing box
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: converts without allocating
	}
	if gcSizes.Sizeof(src) == 0 {
		return // zero-size: every box points at the runtime's zero base
	}
	h.pass.Reportf(expr.Pos(), "%s value boxed into %s in //tb:hotpath function %s; keep hot data monomorphic", src.String(), dst.String(), h.fname)
}
