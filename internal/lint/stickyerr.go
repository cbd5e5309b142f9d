package lint

import (
	"go/ast"
	"go/types"
)

// StickyErrAnalyzer enforces the sticky-error discipline of the durable
// write stream: the error results of Sync, Close on the write path, and
// WAL/device append calls carry permanent device failure and must not
// be silently discarded. A bare call statement discards them; an
// explicit `_ = f.Close()` is a visible decision and is allowed.
// `defer f.Close()` is the accepted read-path idiom and is allowed;
// `defer f.Sync()` is not (the error is unrecoverable by then and the
// sync is not ordered against anything).
var StickyErrAnalyzer = &Analyzer{
	Name: "stickyerr",
	Run:  runStickyErr,
}

func runStickyErr(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					checkSticky(pass, call, false)
				}
			case *ast.DeferStmt:
				checkSticky(pass, n.Call, true)
			case *ast.GoStmt:
				checkSticky(pass, n.Call, true)
			}
			return true
		})
	}
}

func checkSticky(pass *Pass, call *ast.CallExpr, deferred bool) {
	fn := staticCallee(pass.Unit, call)
	if fn == nil || !returnsError(fn) {
		return
	}
	what, sticky := classifySticky(pass, fn)
	if !sticky {
		return
	}
	if deferred && fn.Name() != "Sync" {
		// defer f.Close() and defer os.RemoveAll(dir) are accepted
		// cleanup idioms (write paths Close/remove explicitly and check);
		// defer f.Sync() is not — by then the error orders nothing.
		return
	}
	how := "discarded"
	if deferred {
		how = "discarded by defer"
	}
	pass.Reportf(call.Pos(), "stickyerr: error result of %s is %s; durable-path errors are sticky — check it or discard explicitly with `_ =`", what, how)
}

func classifySticky(pass *Pass, fn *types.Func) (string, bool) {
	if ff := pass.Facts.funcFacts(fn); ff != nil && ff.Sticky {
		return qualifiedShort(fn), true
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", false
	}
	if sig.Recv() == nil {
		// Package-level os mutators (Rename, Remove, WriteFile, ...).
		if fn.Pkg() != nil && fn.Pkg().Path() == "os" && osIOFuncs[fn.Name()] {
			return "os." + fn.Name(), true
		}
		return "", false
	}
	switch {
	case fn.Name() == "Sync" && isNiladicError(sig):
		return recvTypeName(sig) + ".Sync", true
	case fn.Name() == "Close" && isNiladicError(sig) && recvPkg(sig) == "os":
		return recvTypeName(sig) + ".Close", true
	case ioMethodNames[fn.Name()] && ioPackages[recvPkg(sig)]:
		return recvTypeName(sig) + "." + fn.Name(), true
	}
	return "", false
}

func returnsError(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i).Type().String() == "error" {
			return true
		}
	}
	return false
}

func qualifiedShort(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return recvTypeName(sig) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
