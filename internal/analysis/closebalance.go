package analysis

// closebalance: an iterator that was Open'd (or a TupleStream obtained
// from QueryStream) must be Closed on every path — the contract in
// relalg/iterator.go is Close exactly once after a successful Open, and a
// leaked source stream holds a wrapper connection and its dispatcher
// admission slot. The pass is a per-function, linear approximation:
//
//   - a deferred Close balances everything;
//   - ownership transfer (the handle is returned, stored into a struct,
//     sent, or passed to another function) ends the local obligation;
//   - otherwise every return after the Open must be preceded by a Close,
//     except returns on the Open/QueryStream error path itself (Close
//     after a failed Open is explicitly not required).
//
// Opens reached through the method's receiver (o.child.Open(ctx) inside
// an operator's own Open) are exempt: that is the operator-composition
// pattern, where the receiver's Close method — a different function —
// owns the release. The pass polices local handles, not struct fields:
// a local alias of receiver state (sub := s.subs[p]) is a local handle,
// and its Open must be balanced where it stands.
//
// Linear position stands in for dominance: a Close anywhere textually
// before the return satisfies the rule. That under-reports convoluted
// control flow but matches how the engine's consumers are written
// (straight-line drain loops with error-path closes).

import (
	"go/ast"
	"go/token"
	"go/types"
)

var CloseBalanceAnalyzer = &Analyzer{
	Name: "closebalance",
	Doc: "flag Open'd iterators and source streams lacking a Close on " +
		"some path",
	Run: runCloseBalance,
}

func runCloseBalance(pass *Pass) error {
	iterIfc := pass.namedInterface(relalgPath, "Iterator")
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			var recv types.Object
			if fb.decl != nil && fb.decl.Recv != nil && len(fb.decl.Recv.List) == 1 &&
				len(fb.decl.Recv.List[0].Names) == 1 {
				recv = objOf(pass.Info, fb.decl.Recv.List[0].Names[0])
			}
			checkCloseBalance(pass, iterIfc, fb.body, recv)
		}
	}
	return nil
}

// openSite is one acquisition the function must balance.
type openSite struct {
	obj    types.Object // the handle (iterator or stream variable)
	name   string
	pos    token.Pos
	errObj types.Object // the error result of the acquisition, if assigned
}

// hasCloseMethod reports whether t has a Close() error method.
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(tt, true, nil, "Close")
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			sig.Results().At(0).Type().String() == "error" {
			return true
		}
	}
	return false
}

// isOpenCall matches recv.Open(ctx) for a receiver satisfying the
// iterator contract (or at least carrying Open(context.Context) error +
// Close() error).
func isOpenCall(pass *Pass, iterIfc *types.Interface, call *ast.CallExpr) (recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Open" || len(call.Args) != 1 {
		return nil, false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return nil, false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return nil, false
	}
	if sig.Params().At(0).Type().String() != "context.Context" {
		return nil, false
	}
	t := pass.Info.TypeOf(sel.X)
	if iterIfc != nil && implementsIface(t, iterIfc) {
		return sel.X, true
	}
	return sel.X, hasCloseMethod(t)
}

// isStreamAcquire matches calls named QueryStream whose first result
// carries a Close() error method (wrapper.QueryStream and the Streamer
// method form alike).
func isStreamAcquire(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "QueryStream" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Results().Len() >= 1 && hasCloseMethod(sig.Results().At(0).Type())
}

func checkCloseBalance(pass *Pass, iterIfc *types.Interface, body *ast.BlockStmt, recv types.Object) {
	var opens []openSite

	// errorResultObj pulls the error variable out of an acquisition's
	// enclosing assignment, when there is one.
	errorResultObj := func(st *ast.AssignStmt) types.Object {
		if len(st.Lhs) == 0 {
			return nil
		}
		last, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
		if !ok || last.Name == "_" {
			return nil
		}
		obj := objOf(pass.Info, last)
		if obj == nil || obj.Type() == nil || obj.Type().String() != "error" {
			return nil
		}
		return obj
	}

	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var parentAssign *ast.AssignStmt
		if len(stack) > 0 {
			parentAssign, _ = stack[len(stack)-1].(*ast.AssignStmt)
		}
		if opened, ok := isOpenCall(pass, iterIfc, call); ok {
			root := rootIdent(opened)
			if root == nil {
				return true
			}
			obj := objOf(pass.Info, root)
			if obj == nil || (recv != nil && obj == recv) {
				return true // receiver-owned: the type's Close releases it
			}
			site := openSite{obj: obj, name: root.Name, pos: call.Pos()}
			if parentAssign != nil {
				site.errObj = errorResultObj(parentAssign)
			}
			opens = append(opens, site)
			return true
		}
		if isStreamAcquire(pass, call) && parentAssign != nil && len(parentAssign.Lhs) >= 1 {
			id, ok := parentAssign.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			obj := objOf(pass.Info, id)
			if obj == nil {
				return true
			}
			opens = append(opens, openSite{
				obj: obj, name: id.Name, pos: call.Pos(),
				errObj: errorResultObj(parentAssign),
			})
		}
		return true
	})
	if len(opens) == 0 {
		return
	}

	for _, site := range opens {
		analyzeOpenSite(pass, body, site)
	}
}

func analyzeOpenSite(pass *Pass, body *ast.BlockStmt, site openSite) {
	var (
		escapes    bool
		deferClose bool
		closePos   []token.Pos
	)
	type retInfo struct {
		pos     token.Pos
		end     token.Pos
		guarded bool // inside an if whose condition tests the open's error
	}
	var returns []retInfo

	condUsesErr := func(cond ast.Expr) bool {
		if site.errObj == nil || cond == nil {
			return false
		}
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == site.errObj {
				found = true
			}
			return !found
		})
		return found
	}

	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			if x.Pos() <= site.pos {
				return true
			}
			guarded := false
			for i := len(stack) - 1; i >= 0; i-- {
				if ifst, ok := stack[i].(*ast.IfStmt); ok && condUsesErr(ifst.Cond) {
					guarded = true
					break
				}
			}
			returns = append(returns, retInfo{pos: x.Pos(), end: x.End(), guarded: guarded})
		case *ast.Ident:
			if pass.Info.Uses[x] != site.obj {
				return true
			}
			if len(stack) == 0 {
				return true
			}
			parent := stack[len(stack)-1]
			switch p := parent.(type) {
			case *ast.SelectorExpr:
				// obj.Method(...) or obj.Field — find the method name when
				// this selector is a call target.
				if p.Sel.Name == "Close" && len(stack) >= 2 {
					if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok &&
						ast.Unparen(call.Fun) == ast.Expr(p) && len(call.Args) == 0 {
						if len(stack) >= 3 {
							if _, isDefer := stack[len(stack)-3].(*ast.DeferStmt); isDefer {
								deferClose = true
								return true
							}
						}
						closePos = append(closePos, call.Pos())
					}
				}
			case *ast.CallExpr:
				// The handle passed as an argument (not the callee) —
				// ownership transfer.
				for _, arg := range p.Args {
					if ast.Unparen(arg) == ast.Expr(x) {
						escapes = true
					}
				}
			case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
				escapes = true
			case *ast.UnaryExpr:
				if p.Op == token.AND {
					escapes = true
				}
			case *ast.AssignStmt:
				// The bare handle on an RHS (aliasing) or stored through a
				// selector/index LHS — either way, tracking ends.
				for _, r := range p.Rhs {
					if ast.Unparen(r) == ast.Expr(x) {
						escapes = true
					}
				}
			case *ast.IndexExpr:
				if p.Index == ast.Expr(x) {
					return true
				}
				escapes = true
			}
		}
		return true
	})

	if escapes || deferClose {
		return
	}
	if len(closePos) == 0 {
		pass.Reportf(site.pos,
			"%s is opened here but never closed on any path; defer %s.Close() "+
				"or close before every return", site.name, site.name)
		return
	}
	for _, r := range returns {
		if r.guarded {
			continue
		}
		// A Close anywhere before the return, or inside the return
		// expression itself (return n, it.Close()), satisfies the path.
		closedBefore := false
		for _, cp := range closePos {
			if cp < r.end {
				closedBefore = true
				break
			}
		}
		if !closedBefore {
			pass.Reportf(r.pos,
				"return leaks %s (opened at %s) without a Close on this path",
				site.name, pass.Fset.Position(site.pos))
		}
	}
}
