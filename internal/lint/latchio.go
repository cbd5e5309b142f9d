package lint

import (
	"go/token"
	"go/types"
)

// LatchIOAnalyzer enforces the "no device I/O under a write latch"
// rule: the page-data latches (hierarchy levels 5-6: shard, store,
// secondary) exist to protect in-memory page state for microseconds,
// and the fuzzy checkpoint capture depends on never blocking a writer
// behind a device. Any call classified as write-side device I/O
// (structurally, or by //tsb:io directive) reachable while one of those
// latches is held in exclusive mode is reported. The two deliberate
// exceptions (the §3.4 inline burn of a time split, primary and
// secondary) each carry a visible //tsb:allow latchio directive.
var LatchIOAnalyzer = &Analyzer{
	Name: "latchio",
	Run:  runLatchIO,
}

// Levels dataLatchMin through dataLatchMax are the page-data latches:
// holding one of these in write mode must not reach device I/O.
const (
	dataLatchMin = 5
	dataLatchMax = 6
)

// writeLatch reports whether h is a data latch held in write mode.
func writeLatch(h heldLatch) bool {
	return h.spec != nil && h.excl &&
		h.spec.Level >= dataLatchMin && h.spec.Level <= dataLatchMax
}

func runLatchIO(pass *Pass) {
	report := func(pos token.Pos, what string, held []heldLatch, via string) {
		for _, h := range held {
			if writeLatch(h) {
				pass.Reportf(pos, "latchio: device I/O (%s)%s while write latch %q (acquired at %s) is held",
					what, via, h.spec.Name, pass.Fset.Position(h.pos))
				return
			}
		}
	}

	simulate(pass.Unit, pass.Facts, simHooks{
		onIO: func(pos token.Pos, what string, held []heldLatch) {
			report(pos, what, held, "")
		},
		onCall: func(pos token.Pos, fn *types.Func, skip map[string]bool, held []heldLatch) {
			sum := pass.Facts.summaryOf(fn)
			if sum == nil || !sum.ioPos.IsValid() {
				return
			}
			report(pos, fn.Name(), held, " via call to "+fn.Name())
		},
	})
}
