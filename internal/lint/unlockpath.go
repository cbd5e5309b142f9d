package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnlockPathAnalyzer checks that every Lock/RLock is released by a
// defer or explicitly on every return path of the acquiring function.
// Functions implementing a deliberate latch hand-off (the PR 2 cursor
// pattern: return to the caller with the latch held, the caller
// releases) opt out with //tsb:handoff on their declaration. The check
// applies to every sync.Mutex/RWMutex, annotated or not; token and
// state latches (the commit token) have their own
// release discipline and are exempt.
var UnlockPathAnalyzer = &Analyzer{
	Name: "unlockpath",
	Doc:  "check that every Lock/RLock is released on every return path or by defer",
	Run:  runUnlockPath,
}

func runUnlockPath(pass *Pass) {
	handoffRanges := handoffBodies(pass)

	check := func(pos token.Pos, held []*heldLatch, where string) {
		for _, r := range handoffRanges {
			if pos >= r[0] && pos < r[1] {
				return
			}
		}
		for _, h := range held {
			if h.spec != nil && (h.spec.Kind == "token" || h.spec.Kind == "state") {
				continue
			}
			pass.Reportf(pos, "unlockpath: %s locked at %s is still held at this %s; release it on every path, defer the unlock, or annotate the function //tsb:handoff",
				h.describe(), pass.Fset.Position(h.pos), where)
		}
	}

	simulate(pass.Unit, pass.Facts, simHooks{
		onReturn: func(pos token.Pos, held []*heldLatch) {
			check(pos, held, "return")
		},
		onEnd: func(pos token.Pos, held []*heldLatch) {
			check(pos, held, "fall-through function end")
		},
	})
}

// handoffBodies returns the body ranges of //tsb:handoff functions.
func handoffBodies(pass *Pass) [][2]token.Pos {
	var out [][2]token.Pos
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if ff := pass.Facts.funcFacts(fn); ff != nil && ff.Handoff {
				out = append(out, [2]token.Pos{fd.Body.Pos(), fd.Body.End()})
			}
		}
	}
	return out
}
