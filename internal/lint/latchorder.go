package lint

import (
	"go/token"
	"go/types"
)

// LatchOrderAnalyzer enforces the latch hierarchy: a function may only
// acquire latches at strictly greater levels than every latch it
// already holds (level 1 is the coarsest). Acquiring a latch with the
// same name is allowed across *different* instances (the shard latches
// are taken in index order by convention), but re-acquiring the same
// instance is self-deadlock and is always reported. The check is
// intraprocedural plus one call-graph level: a call to a same-package
// function is charged with every latch that function's body acquires,
// and //tsb:locks / //tsb:wraps directives extend that across package
// boundaries.
var LatchOrderAnalyzer = &Analyzer{
	Name: "latchorder",
	Run:  runLatchOrder,
}

func runLatchOrder(pass *Pass) {
	checkAcquire := func(h heldLatch, held []heldLatch, via string) {
		for _, g := range held {
			if g.key == h.key && via == "" {
				pass.Reportf(h.pos, "latchorder: re-acquiring %s already held (acquired at %s): self-deadlock",
					h.describe(), pass.Fset.Position(g.pos))
				return
			}
			if h.spec == nil || g.spec == nil {
				continue
			}
			if h.spec.Name == g.spec.Name {
				continue // same latch class, ordered by convention (e.g. shards in index order)
			}
			if h.spec.Level <= g.spec.Level {
				pass.Reportf(h.pos, "latchorder: acquiring%s latch %q (level %d) while holding %q (level %d) violates the latch hierarchy",
					via, h.spec.Name, h.spec.Level, g.spec.Name, g.spec.Level)
				return
			}
		}
	}

	simulate(pass.Unit, pass.Facts, simHooks{
		onAcquire: func(h heldLatch, held []heldLatch) {
			checkAcquire(h, held, "")
		},
		onCall: func(pos token.Pos, fn *types.Func, skip map[string]bool, held []heldLatch) {
			sum := pass.Facts.summaryOf(fn)
			if sum == nil {
				return
			}
			for name := range sum.acquires {
				if skip[name] {
					continue
				}
				spec := pass.Facts.byName[name]
				if spec == nil {
					continue
				}
				checkAcquire(heldLatch{key: "call:" + name, spec: spec, excl: true, pos: pos}, held,
					" (via call to "+fn.Name()+")")
			}
		},
	})
}
