package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the shared lock-state simulator: an abstract
// interpretation of a function body that tracks which latches are held
// at each point. latchorder, latchio, and unlockpath are thin hook sets
// over it.
//
// The model is deliberately conservative in the direction of few false
// positives (this runs as a blocking CI gate):
//
//   - Branches are simulated per-path; at merge points the held set is
//     the intersection of the surviving paths, and a latch released on
//     one path counts as released.
//   - Loop bodies are simulated (so returns inside them are checked)
//     but the held set at loop exit reverts to the loop-entry state.
//   - Function literals passed to a //tsb:wraps callee are simulated
//     inline, under the wrapped latch; every other literal is analyzed
//     as an independent function starting from an empty held set.

// heldLatch is one entry of the abstract held-latch stack. Entries are
// values, so each simulated path owns its copy: a defer on one branch
// marks only that branch's entry.
type heldLatch struct {
	key      string     // instance key: rendered expr ("sh.mu") or "wraps:<name>"
	spec     *LatchSpec // nil for mutexes outside the declared hierarchy
	excl     bool       // held in write/exclusive mode
	pos      token.Pos  // acquisition site
	deferred bool       // released by defer (or owned by a //tsb:wraps wrapper)
}

func (h heldLatch) describe() string {
	if h.spec != nil {
		return "\"" + h.spec.Name + "\""
	}
	return h.key
}

type simState struct {
	held []heldLatch
}

func (s *simState) clone() *simState {
	return &simState{held: append([]heldLatch(nil), s.held...)}
}

// release removes the most recent entry with the given key.
func (s *simState) release(key string) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

func (s *simState) markDeferred(key string) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key {
			s.held[i].deferred = true
			return
		}
	}
}

// live returns the held latches not covered by a deferred release.
func (s *simState) live() []heldLatch {
	var out []heldLatch
	for _, h := range s.held {
		if !h.deferred {
			out = append(out, h)
		}
	}
	return out
}

func intersectHeld(a, b []heldLatch) []heldLatch {
	var out []heldLatch
	for _, h := range a {
		for _, g := range b {
			if g.key == h.key {
				h.deferred = h.deferred || g.deferred
				out = append(out, h)
				break
			}
		}
	}
	return out
}

type simHooks struct {
	// onAcquire fires when a latch is about to be acquired; held is the
	// current stack (not yet including the new latch).
	onAcquire func(h heldLatch, held []heldLatch)
	// onIO fires at a device-I/O call.
	onIO func(pos token.Pos, what string, held []heldLatch)
	// onCall fires at calls to same-package functions, for one-level
	// call-graph checks. skip lists latch names already handled via
	// directive facts at this call site.
	onCall func(pos token.Pos, fn *types.Func, skip map[string]bool, held []heldLatch)
	// onReturn fires at each return statement with the live held set.
	onReturn func(pos token.Pos, held []heldLatch)
	// onEnd fires when the body falls off the end with the live held set.
	onEnd func(pos token.Pos, held []heldLatch)
}

type sim struct {
	u       *Unit
	f       *Facts
	hooks   simHooks
	orphans []*ast.FuncLit
	seen    map[*ast.FuncLit]bool // literals consumed inline (not orphans)
}

// simulate runs the interpreter over every function declaration in the
// unit (and every function literal, from an empty state, unless the
// literal was consumed inline).
func simulate(u *Unit, f *Facts, hooks simHooks) {
	s := &sim{u: u, f: f, hooks: hooks, seen: make(map[*ast.FuncLit]bool)}
	for _, file := range u.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.walkBody(fd.Body, &simState{})
			s.drainOrphans()
		}
	}
}

func (s *sim) drainOrphans() {
	for len(s.orphans) > 0 {
		lit := s.orphans[0]
		s.orphans = s.orphans[1:]
		if s.seen[lit] {
			continue
		}
		s.seen[lit] = true
		s.walkBody(lit.Body, &simState{})
	}
}

func (s *sim) walkBody(body *ast.BlockStmt, st *simState) {
	if !s.walkStmts(body.List, st) && s.hooks.onEnd != nil {
		s.hooks.onEnd(body.Rbrace, st.live())
	}
}

// walkStmts returns true if every path through the statements exits the
// function (return / panic / terminal branch).
func (s *sim) walkStmts(stmts []ast.Stmt, st *simState) bool {
	for _, stmt := range stmts {
		if s.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (s *sim) walkStmt(stmt ast.Stmt, st *simState) bool {
	switch stmt := stmt.(type) {
	case *ast.ExprStmt:
		s.walkExpr(stmt.X, st)
		return isTerminalCall(stmt.X, s.u)
	case *ast.AssignStmt:
		for _, e := range stmt.Rhs {
			s.walkExpr(e, st)
		}
		for _, e := range stmt.Lhs {
			s.walkExpr(e, st)
		}
	case *ast.IncDecStmt:
		s.walkExpr(stmt.X, st)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.walkExpr(v, st)
					}
				}
			}
		}
	case *ast.SendStmt:
		s.walkExpr(stmt.Value, st)
		if spec, key, ok := s.tokenLatch(stmt.Chan); ok {
			s.acquire(st, heldLatch{key: key, spec: spec, excl: true, pos: stmt.Arrow})
		}
	case *ast.DeferStmt:
		s.walkDefer(stmt, st)
	case *ast.GoStmt:
		for _, a := range stmt.Call.Args {
			s.walkExpr(a, st)
		}
		if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
			s.orphans = append(s.orphans, lit)
		}
	case *ast.ReturnStmt:
		for _, e := range stmt.Results {
			s.walkExpr(e, st)
		}
		if s.hooks.onReturn != nil {
			s.hooks.onReturn(stmt.Pos(), st.live())
		}
		return true
	case *ast.IfStmt:
		if stmt.Init != nil {
			s.walkStmt(stmt.Init, st)
		}
		s.walkExpr(stmt.Cond, st)
		thenSt := st.clone()
		elseSt := st.clone()
		thenExits := s.walkStmts(stmt.Body.List, thenSt)
		elseExits := false
		if stmt.Else != nil {
			elseExits = s.walkStmt(stmt.Else, elseSt)
		}
		switch {
		case thenExits && elseExits:
			return true
		case thenExits:
			st.held = elseSt.held
		case elseExits:
			st.held = thenSt.held
		default:
			st.held = intersectHeld(thenSt.held, elseSt.held)
		}
	case *ast.ForStmt:
		if stmt.Init != nil {
			s.walkStmt(stmt.Init, st)
		}
		if stmt.Cond != nil {
			s.walkExpr(stmt.Cond, st)
		}
		body := st.clone()
		s.walkStmts(stmt.Body.List, body)
		if stmt.Post != nil {
			s.walkStmt(stmt.Post, body)
		}
		// Held state reverts to loop entry: see file comment.
		// An infinite loop with no break never falls through.
		if stmt.Cond == nil && !hasBreak(stmt.Body) {
			return true
		}
	case *ast.RangeStmt:
		s.walkExpr(stmt.X, st)
		body := st.clone()
		s.walkStmts(stmt.Body.List, body)
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			s.walkStmt(stmt.Init, st)
		}
		if stmt.Tag != nil {
			s.walkExpr(stmt.Tag, st)
		}
		return s.walkCases(stmt.Body, st, false)
	case *ast.TypeSwitchStmt:
		if stmt.Init != nil {
			s.walkStmt(stmt.Init, st)
		}
		s.walkStmt(stmt.Assign, st)
		return s.walkCases(stmt.Body, st, false)
	case *ast.SelectStmt:
		return s.walkCases(stmt.Body, st, true)
	case *ast.BlockStmt:
		return s.walkStmts(stmt.List, st)
	case *ast.LabeledStmt:
		return s.walkStmt(stmt.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the held state
		// they carry is reconciled by the loop-entry reversion rule.
		return true
	}
	return false
}

// walkCases simulates each case of a switch or select from a clone of
// the incoming state and merges the survivors by intersection. For a
// select (or a switch with a default), if every case exits then the
// whole statement exits.
func (s *sim) walkCases(body *ast.BlockStmt, st *simState, isSelect bool) bool {
	var survivors []*simState
	hasDefault := false
	sawCase := false
	for _, c := range body.List {
		cs := st.clone()
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				s.walkExpr(e, cs)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				s.walkStmt(c.Comm, cs)
			}
			stmts = c.Body
		}
		sawCase = true
		if !s.walkStmts(stmts, cs) {
			survivors = append(survivors, cs)
		}
	}
	if sawCase && len(survivors) == 0 && (isSelect || hasDefault) {
		return true
	}
	merged := st.held
	if len(survivors) > 0 {
		merged = survivors[0].held
		for _, sv := range survivors[1:] {
			merged = intersectHeld(merged, sv.held)
		}
		if !hasDefault && !isSelect {
			// The switch may match no case at all.
			merged = intersectHeld(merged, st.held)
		}
	}
	st.held = merged
	return false
}

func (s *sim) walkExpr(e ast.Expr, st *simState) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		s.walkCall(e, st)
	case *ast.FuncLit:
		s.orphans = append(s.orphans, e)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if _, key, ok := s.tokenLatch(e.X); ok {
				st.release(key)
				return
			}
		}
		s.walkExpr(e.X, st)
	case *ast.BinaryExpr:
		s.walkExpr(e.X, st)
		s.walkExpr(e.Y, st)
	case *ast.ParenExpr:
		s.walkExpr(e.X, st)
	case *ast.StarExpr:
		s.walkExpr(e.X, st)
	case *ast.SelectorExpr:
		s.walkExpr(e.X, st)
	case *ast.IndexExpr:
		s.walkExpr(e.X, st)
		s.walkExpr(e.Index, st)
	case *ast.IndexListExpr:
		s.walkExpr(e.X, st)
	case *ast.SliceExpr:
		s.walkExpr(e.X, st)
		s.walkExpr(e.Low, st)
		s.walkExpr(e.High, st)
		s.walkExpr(e.Max, st)
	case *ast.TypeAssertExpr:
		s.walkExpr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		s.walkExpr(e.Value, st)
	}
}

// lockMethods maps sync method names to (acquire?, exclusive?).
var lockMethods = map[string][2]bool{
	"Lock":    {true, true},
	"RLock":   {true, false},
	"Unlock":  {false, true},
	"RUnlock": {false, false},
}

func (s *sim) walkCall(call *ast.CallExpr, st *simState) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		s.walkExpr(sel.X, st)
		if lk, ok := lockMethods[sel.Sel.Name]; ok && s.isSyncMutexMethod(sel) {
			key := exprKey(sel.X)
			if lk[0] {
				spec := s.f.latches[fieldObjOf(s.u, sel.X)]
				s.acquire(st, heldLatch{key: key, spec: spec, excl: lk[1], pos: call.Pos()})
			} else {
				st.release(key)
			}
			return
		}
	} else {
		s.walkExpr(call.Fun, st)
	}

	fn := staticCallee(s.u, call)
	facts := s.f.funcFacts(fn)

	skip := make(map[string]bool)
	if facts != nil {
		for _, name := range facts.Wraps {
			skip[name] = true
			if spec := s.f.byName[name]; spec != nil {
				// Released by the wrapper itself, hence deferred.
				s.acquire(st, heldLatch{key: "wraps:" + name, spec: spec, excl: true, pos: call.Pos(), deferred: true})
			}
		}
		for _, name := range facts.Locks {
			skip[name] = true
			if spec := s.f.byName[name]; spec != nil && s.hooks.onAcquire != nil {
				s.hooks.onAcquire(heldLatch{key: "locks:" + name, spec: spec, excl: true, pos: call.Pos()}, st.held)
			}
		}
	}

	// Arguments; function literals passed to a wrapping callee run with
	// the wrapped latches held, so walk them inline under the current
	// (augmented) state. Everything held here is this function's to
	// release, not the literal's: the literal sees it as deferred.
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok && facts != nil && len(facts.Wraps) > 0 {
			s.seen[lit] = true
			inner := st.clone()
			for i := range inner.held {
				inner.held[i].deferred = true
			}
			s.walkBody(lit.Body, inner)
			continue
		}
		s.walkExpr(a, st)
	}

	if s.hooks.onIO != nil {
		if facts != nil && facts.IO {
			s.hooks.onIO(call.Pos(), fn.Name(), st.held)
		} else if ok, what := isIOCall(s.u, call, fn); ok {
			s.hooks.onIO(call.Pos(), what, st.held)
		}
	}
	// Pop wrapped latches: the callee released them before returning.
	if facts != nil {
		for _, name := range facts.Wraps {
			st.release("wraps:" + name)
		}
	}

	if fn != nil && fn.Pkg() == s.u.Pkg && s.hooks.onCall != nil {
		s.hooks.onCall(call.Pos(), fn, skip, st.held)
	}
}

func (s *sim) walkDefer(d *ast.DeferStmt, st *simState) {
	call := d.Call
	for _, a := range call.Args {
		s.walkExpr(a, st)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if lk, ok := lockMethods[sel.Sel.Name]; ok && !lk[0] && s.isSyncMutexMethod(sel) {
			st.markDeferred(exprKey(sel.X))
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.seen[lit] = true
		s.scanDeferredReleases(lit.Body, st)
	}
}

// scanDeferredReleases marks latches released anywhere inside a deferred
// function literal (unlocks and token receives).
func (s *sim) scanDeferredReleases(body ast.Node, st *simState) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if lk, ok := lockMethods[sel.Sel.Name]; ok && !lk[0] && s.isSyncMutexMethod(sel) {
					st.markDeferred(exprKey(sel.X))
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if _, key, ok := s.tokenLatch(n.X); ok {
					st.markDeferred(key)
				}
			}
		}
		return true
	})
}

func (s *sim) acquire(st *simState, h heldLatch) {
	if s.hooks.onAcquire != nil {
		s.hooks.onAcquire(h, st.held)
	}
	st.held = append(st.held, h)
}

// isSyncMutexMethod reports whether sel selects a Lock-family method on
// a sync.Mutex or sync.RWMutex value.
func (s *sim) isSyncMutexMethod(sel *ast.SelectorExpr) bool {
	fn, _ := s.u.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}

// tokenLatch reports whether e is a selector of a token-kind latch
// channel field, returning its spec and instance key.
func (s *sim) tokenLatch(e ast.Expr) (*LatchSpec, string, bool) {
	spec := s.f.latches[fieldObjOf(s.u, e)]
	if spec == nil || spec.Kind != "token" {
		return nil, "", false
	}
	return spec, exprKey(e), true
}

// fieldObjOf resolves the object selected/named by e (unwrapping parens).
func fieldObjOf(u *Unit, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fieldObjOf(u, e.X)
	case *ast.SelectorExpr:
		if selx, ok := u.Info.Selections[e]; ok {
			return selx.Obj()
		}
		return u.Info.Uses[e.Sel]
	case *ast.Ident:
		return u.Info.Uses[e]
	}
	return nil
}

// staticCallee resolves the statically-known *types.Func a call invokes,
// or nil for dynamic calls (function values, builtins, conversions).
func staticCallee(u *Unit, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := u.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ioPackages are packages whose write-side methods count as device I/O
// without a //tsb:io directive: a method named in ioMethodNames on a
// type from one of these packages writes to a device.
var ioPackages = map[string]bool{
	"os":                       true,
	"repro/internal/storage":   true,
	"repro/internal/pagestore": true,
	"repro/internal/wal":       true,
}

// ioMethodNames are method names that count as write-side device I/O
// when the receiver type lives in an ioPackages package.
var ioMethodNames = map[string]bool{
	"Sync":     true,
	"Write":    true,
	"WriteAt":  true,
	"Truncate": true,
}

// osIOFuncs are package-level os functions that touch the filesystem
// (the write side; reads are deliberately not flagged).
var osIOFuncs = map[string]bool{
	"Rename":    true,
	"Remove":    true,
	"RemoveAll": true,
	"Create":    true,
	"OpenFile":  true,
	"WriteFile": true,
	"MkdirAll":  true,
	"Mkdir":     true,
	"Truncate":  true,
}

// isIOCall reports whether a call performs write-side device I/O, by
// structure rather than by directive: os mutating functions, and Sync /
// Write-family methods on types from I/O packages.
func isIOCall(u *Unit, call *ast.CallExpr, fn *types.Func) (bool, string) {
	if fn == nil {
		return false, ""
	}
	// The observability substrate is never device I/O: its instruments
	// record with atomics, so even a Sync-shaped method there is safe
	// under any latch.
	if fn.Pkg() != nil && fn.Pkg().Path() == "repro/internal/obs" {
		return false, ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && osIOFuncs[fn.Name()] {
			return true, "os." + fn.Name()
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false, ""
	}
	if !ioMethodNames[fn.Name()] {
		return false, ""
	}
	if fn.Name() == "Sync" && isNiladicError(sig) {
		return true, recvTypeName(sig) + ".Sync"
	}
	if recvPkg(sig) != "" && ioPackages[recvPkg(sig)] {
		return true, recvTypeName(sig) + "." + fn.Name()
	}
	return false, ""
}

func isNiladicError(sig *types.Signature) bool {
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return sig.Results().At(0).Type().String() == "error"
}

func recvPkg(sig *types.Signature) string {
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path()
	}
	return ""
}

func recvTypeName(sig *types.Signature) string {
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// isTerminalCall reports whether the expression statement never returns
// (panic, os.Exit, runtime.Goexit, log.Fatal*, testing fatals).
func isTerminalCall(e ast.Expr, u *Unit) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		fn := staticCallee(u, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
		}
	}
	return false
}

// hasBreak reports whether a loop body contains a break that targets the
// loop itself (nested loops and switches shadow plain breaks, which is
// approximated by not descending into them).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// A plain break inside these targets the statement, not the
			// loop; a labeled break is out of model (rare) — treat the
			// loop as breakable to stay conservative.
			return true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return found
}
