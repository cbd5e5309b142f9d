package lint

import "go/token"

// UnlockPathAnalyzer checks that every Lock/RLock, and every send on a
// token latch channel, is released by a defer or explicitly on every
// return path of the acquiring function. The check applies to every
// sync.Mutex/RWMutex, annotated or not.
var UnlockPathAnalyzer = &Analyzer{
	Name: "unlockpath",
	Run:  runUnlockPath,
}

func runUnlockPath(pass *Pass) {
	check := func(pos token.Pos, held []heldLatch, where string) {
		for _, h := range held {
			pass.Reportf(pos, "unlockpath: %s locked at %s is still held at this %s; release it on every path or defer the unlock",
				h.describe(), pass.Fset.Position(h.pos), where)
		}
	}

	simulate(pass.Unit, pass.Facts, simHooks{
		onReturn: func(pos token.Pos, held []heldLatch) {
			check(pos, held, "return")
		},
		onEnd: func(pos token.Pos, held []heldLatch) {
			check(pos, held, "fall-through function end")
		},
	})
}
