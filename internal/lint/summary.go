package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcSummary is the one-level call-graph summary of a same-package
// function: which hierarchy latches its body acquires anywhere (path
// insensitively) and whether it reaches device I/O. latchorder and
// latchio consult the summary of a direct callee, which together with
// the intraprocedural walk gives the "intraprocedural + one level"
// analysis depth.
type funcSummary struct {
	acquires map[string]token.Pos // latch name -> representative site
	ioPos    token.Pos            // first unsuppressed device-I/O site (NoPos if none)
}

func (f *Facts) buildSummaries(u *Unit) {
	for _, file := range u.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := u.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			f.summaries[fn] = f.collectSummary(u, fd.Body)
		}
	}
}

func (f *Facts) summaryOf(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	return f.summaries[fn.Origin()]
}

func (f *Facts) collectSummary(u *Unit, body *ast.BlockStmt) *funcSummary {
	sum := &funcSummary{acquires: make(map[string]token.Pos)}
	addAcq := func(name string, pos token.Pos) {
		if _, ok := sum.acquires[name]; !ok {
			sum.acquires[name] = pos
		}
	}
	markIO := func(pos token.Pos) {
		if sum.ioPos.IsValid() {
			return
		}
		if f.allowed("latchio", u.Fset.Position(pos)) {
			return
		}
		sum.ioPos = pos
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if spec := f.latches[fieldObjOf(u, n.Chan)]; spec != nil && spec.Kind == "token" {
				addAcq(spec.Name, n.Arrow)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if lk, ok := lockMethods[sel.Sel.Name]; ok && lk[0] {
					if spec := f.latches[fieldObjOf(u, sel.X)]; spec != nil {
						addAcq(spec.Name, n.Pos())
					}
				}
			}
			fn := staticCallee(u, n)
			if facts := f.funcFacts(fn); facts != nil {
				for _, name := range facts.Locks {
					addAcq(name, n.Pos())
				}
				for _, name := range facts.Wraps {
					addAcq(name, n.Pos())
				}
				if facts.IO {
					markIO(n.Pos())
				}
			} else if ok, _ := isIOCall(u, n, fn); ok {
				markIO(n.Pos())
			}
		}
		return true
	})
	return sum
}
