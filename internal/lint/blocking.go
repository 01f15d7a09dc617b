package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockingInTask flags thread-blocking operations inside task bodies —
// function literals handed to the runtime's spawn entry points (Async,
// AsyncAt, AsyncAwait, Forasync, Finish, Launch, ...). The runtime's
// contract is that pluggable work suspends rather than blocks: a task
// that parks its goroutine in the Go scheduler takes a HiPER worker
// thread with it, stalling every place on that worker's pop path. The
// suspending equivalents (Ctx.Wait/Get on futures, AsyncAwait
// predication, a module's when-future for a condition another rank
// establishes, finish scopes instead of WaitGroups) keep the worker
// servicing its places.
//
// Flagged inside a task body:
//   - time.Sleep
//   - raw channel sends and receives (and select without a default)
//   - sync.WaitGroup.Wait
//   - Lock/RLock on a package-level mutex
//
// Code inside `go` statements launched from a task body is exempt: a
// fresh goroutine is not a worker thread. Function literals passed to
// nested spawn calls are task bodies in their own right and are checked
// at that nesting level, not twice.
//
// The check is interprocedural: beyond the direct operations above, any
// call from a task body to a module function whose effect summary shows
// it can block — no matter how many helper frames deep the primitive
// sits — is flagged at the call site, with the witness chain in the
// message. Chains are cut at internal/core and internal/fabric, the
// sanctioned suspension and yield-polling layers: calling Ctx.Wait or
// Transport.Recv is how a task is SUPPOSED to wait.
type BlockingInTask struct{}

// Name implements Checker.
func (*BlockingInTask) Name() string { return "blocking-in-task" }

// Doc implements Checker.
func (*BlockingInTask) Doc() string {
	return "task bodies must suspend, not block worker threads (no time.Sleep, raw channel ops, WaitGroup.Wait, or global-mutex locks)"
}

// spawnMethods are the Ctx/Runtime entry points whose function-literal
// arguments execute as tasks on worker threads.
var spawnMethods = map[string]bool{
	"Async": true, "AsyncAt": true, "AsyncDetachedAt": true,
	"AsyncAwait": true, "AsyncAwaitAt": true,
	"AsyncFuture": true, "AsyncFutureAt": true,
	"AsyncFutureAwait": true, "AsyncFutureAwaitAt": true,
	"Forasync": true, "ForasyncAt": true, "ForasyncSync": true,
	"Forasync2D": true, "Forasync3D": true,
	"ForasyncFuture": true, "ForasyncFuture2D": true, "ForasyncFuture3D": true,
	"Finish": true, "FinishFuture": true, "Yield": true,
	"Launch": true, "SpawnDetachedAt": true,
}

// Check implements Checker.
func (c *BlockingInTask) Check(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSpawnCall(p, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					c.checkTaskBody(p, r, lit)
					continue
				}
				// A named function passed as a task body is a task body
				// too; its summary must be suspension-clean.
				c.checkNamedTaskBody(p, r, arg)
			}
			return true
		})
	}
}

// isSpawnCall reports whether call is a task-spawning method call on a
// Ctx or Runtime receiver.
func isSpawnCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !spawnMethods[sel.Sel.Name] {
		return false
	}
	if tv, ok := p.Info.Types[sel.X]; ok && tv.Type != nil {
		name := namedTypeName(tv.Type)
		return name == "Ctx" || name == "Runtime"
	}
	// Fallback without type information: conventional receiver names.
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name == "c" || id.Name == "ctx" || id.Name == "rt"
	}
	return false
}

// namedTypeName unwraps pointers and returns the bare name of a named
// type, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkTaskBody walks one task body flagging blocking operations,
// handling the exemptions described on the checker.
func (c *BlockingInTask) checkTaskBody(p *Package, r *Reporter, lit *ast.FuncLit) {
	var visit func(n ast.Node) bool
	inspectStmts := func(list []ast.Stmt) {
		for _, s := range list {
			ast.Inspect(s, visit)
		}
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned goroutine may block freely; argument expressions
			// still evaluate on the worker, so walk those.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, visit)
			}
			if _, ok := n.Call.Fun.(*ast.FuncLit); !ok {
				ast.Inspect(n.Call.Fun, visit)
			}
			return false
		case *ast.CallExpr:
			if isSpawnCall(p, n) {
				// Nested task bodies are visited by Check at their own call
				// site; everything else about this call is still ours.
				for _, arg := range n.Args {
					if _, ok := arg.(*ast.FuncLit); !ok {
						ast.Inspect(arg, visit)
					}
				}
				ast.Inspect(n.Fun, visit)
				return false
			}
			c.checkCall(p, r, n)
			c.checkTransitive(p, r, n)
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				r.Reportf(n.Pos(), "select without a default case blocks the worker thread inside a task; add a default or suspend via futures (AsyncAwait/Ctx.Wait)")
			}
			// Clause bodies run on the worker either way; the comm
			// operations themselves are part of the (already reported or
			// non-blocking) select.
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					inspectStmts(cc.Body)
				}
			}
			return false
		case *ast.SendStmt:
			r.Reportf(n.Pos(), "raw channel send blocks the worker thread inside a task; use a promise (Ctx.Put) or a buffered/select-default send")
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				r.Reportf(n.Pos(), "raw channel receive blocks the worker thread inside a task; suspend with Ctx.Wait/Get on a future (a module when-future for remote writes)")
			}
			return true
		}
		return true
	}
	ast.Inspect(lit.Body, visit)
}

// checkTransitive flags calls (inside a task body) to module functions
// whose summary shows they can block through an arbitrarily deep helper
// chain. Direct primitives in the body itself are checkCall's job, so a
// callee is only consulted here, never the call's own operator.
func (c *BlockingInTask) checkTransitive(p *Package, r *Reporter, call *ast.CallExpr) {
	if p.Prog == nil {
		return
	}
	for _, callee := range p.Prog.resolveCallee(p, call) {
		if callee.Lit != nil {
			continue // a literal's body is lexically here and checked directly
		}
		if blocksCut(callee) {
			continue // sanctioned suspension/polling layer
		}
		sum := p.Prog.Summary(callee)
		if len(sum.Blocks) == 0 {
			continue
		}
		e := sum.Blocks[0]
		r.Reportf(call.Pos(), "calling %s inside a task reaches %s (via %s at %s), which blocks the worker thread; suspend with futures (Ctx.Wait/Get, AsyncAwait, module when-futures) instead",
			callee.Name, e.What, chainOrSelf(callee, e), r.Position(e.Pos))
		return // one witness per call site is enough
	}
}

// checkNamedTaskBody applies the transitive blocking rule to a named
// function used directly as a task body (c.Async(run) instead of a
// literal).
func (c *BlockingInTask) checkNamedTaskBody(p *Package, r *Reporter, arg ast.Expr) {
	if p.Prog == nil {
		return
	}
	var fn *FuncInfo
	switch a := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if obj, ok := p.Info.Uses[a].(*types.Func); ok {
			fn = p.Prog.FuncOf(obj)
		}
	case *ast.SelectorExpr:
		if obj, ok := p.Info.Uses[a.Sel].(*types.Func); ok {
			fn = p.Prog.FuncOf(obj)
		}
	}
	if fn == nil || blocksCut(fn) {
		return
	}
	sum := p.Prog.Summary(fn)
	if len(sum.Blocks) == 0 {
		return
	}
	e := sum.Blocks[0]
	r.Reportf(arg.Pos(), "task body %s reaches %s (via %s at %s), which blocks the worker thread; task bodies must suspend, not block",
		fn.Name, e.What, chainOrSelf(fn, e), r.Position(e.Pos))
}

// chainOrSelf renders an effect's witness chain, falling back to the
// callee's own name for direct effects.
func chainOrSelf(callee *FuncInfo, e Effect) string {
	if v := e.Via(); v != "" {
		return callee.Name + " → " + v
	}
	return callee.Name
}

// checkCall flags blocking call expressions inside a task body.
func (c *BlockingInTask) checkCall(p *Package, r *Reporter, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Sleep":
		if isPkgIdent(p, sel.X, "time") {
			r.Reportf(call.Pos(), "time.Sleep inside a task blocks the worker thread; wait on the future of the event you are pacing for (Ctx.Wait keeps servicing places) or restructure with AsyncAwait")
		}
	case "Wait":
		if isNamedType(p, sel.X, "sync", "WaitGroup") {
			r.Reportf(call.Pos(), "sync.WaitGroup.Wait inside a task blocks the worker thread; use a finish scope (Ctx.Finish) or WhenAll futures instead")
		}
	case "Lock", "RLock":
		if (isNamedType(p, sel.X, "sync", "Mutex") || isNamedType(p, sel.X, "sync", "RWMutex")) && isPackageLevel(p, sel.X) {
			r.Reportf(call.Pos(), "locking package-level mutex %s inside a task can block the worker thread for unbounded time; keep critical sections off the task path or serialize through a dedicated place", types.ExprString(sel.X))
		}
	}
}

// isPkgIdent reports whether e is an identifier naming the import of
// package pkgPath.
func isPkgIdent(p *Package, e ast.Expr, pkgPath string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, ok := p.Info.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		return ok && pn.Imported().Path() == pkgPath
	}
	return id.Name == pkgPath // untyped fallback
}

// isNamedType reports whether e's type (possibly behind a pointer) is the
// named type pkgPath.name.
func isNamedType(p *Package, e ast.Expr, pkgPath, name string) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isPackageLevel reports whether the root identifier of e resolves to a
// package-scope object.
func isPackageLevel(p *Package, e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := p.Info.Uses[root]
	if obj == nil {
		obj = p.Info.Defs[root]
	}
	if obj == nil || p.Types == nil {
		return false
	}
	return obj.Parent() == p.Types.Scope()
}

// rootIdent unwraps selectors, indexing, parens, and derefs down to the
// leftmost identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
