// Package lint implements tsbvet, the repo's static checker for the
// latch-hierarchy and durability-ordering invariants documented in
// docs/ARCHITECTURE.md ("Statically enforced invariants").
//
// The package deliberately depends only on the standard library: the
// build environment pins the toolchain and carries no module cache, so
// the usual golang.org/x/tools/go/analysis machinery is rebuilt here in
// miniature. An Analyzer receives one type-checked package (a Unit) and
// reports Diagnostics; cmd/tsbvet adapts the set of analyzers both to
// the `go vet -vettool` single-package protocol and to a standalone
// whole-module run.
//
// Invariants are declared in source with //tsb: directives:
//
//	//tsb:latch level=N name=X   on a mutex/channel/state field: the
//	                             field is latch X at hierarchy level N
//	                             (1 is the coarsest; a holder may only
//	                             acquire strictly greater levels).
//	//tsb:acquires X             calling this function acquires latch X
//	                             and leaves it held.
//	//tsb:releases X             calling this function releases latch X.
//	//tsb:wraps X                this function runs its function-typed
//	                             argument with latch X held.
//	//tsb:io                     this function performs device I/O.
//	//tsb:handoff                this function intentionally returns with
//	                             a latch held (latch hand-off protocol);
//	                             unlockpath skips it.
//	//tsb:allow <analyzer>       suppress <analyzer> diagnostics on the
//	                             next (or same) line, or on the whole
//	                             function when written in its doc comment.
//
// Every suppression is grep-able: the only way to silence a diagnostic
// is a visible //tsb:allow at the offending site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unit is one type-checked package: the input to the analyzers.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with all the maps the analyzers need
// populated. Callers type-checking a Unit themselves should use it.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one Unit plus the parsed
// directives, and collects diagnostics (applying //tsb:allow
// suppression centrally).
type Pass struct {
	*Unit
	Analyzer *Analyzer
	Facts    *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //tsb:allow directive
// (line-level or enclosing-function-level) suppresses it, or pos sits
// in a _test.go file: the invariants target production code, and test
// code routinely does deliberately odd things with latches.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.Facts.allowed(p.Analyzer.Name, position, pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Analyzers returns the full tsbvet suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LatchOrderAnalyzer,
		LatchIOAnalyzer,
		UnlockPathAnalyzer,
		DurableRenameAnalyzer,
		StickyErrAnalyzer,
	}
}

// RunAll runs every analyzer over the unit and returns the (unsuppressed)
// diagnostics sorted by position.
func RunAll(u *Unit) []Diagnostic {
	return Run(u, Analyzers())
}

// Run runs the given analyzers over the unit.
func Run(u *Unit, analyzers []*Analyzer) []Diagnostic {
	facts := BuildFacts(u)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Unit: u, Analyzer: a, Facts: facts, diags: &diags}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// funcQName renders a *types.Func as the qualified name used by the
// built-in tables: "pkgpath.Func" or "pkgpath.Recv.Method" (pointer
// receivers are not distinguished).
func funcQName(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name() + "." + f.Name()
				}
				return obj.Name() + "." + f.Name()
			}
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

// exprKey renders a stable instance key for a latch expression like
// sh.mu or d.secMu, so Lock/Unlock pairs on the same expression match.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprKey(e.X)
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.CallExpr:
		// Calls are not stable instances; make the key unique so a
		// lock through a call result never pairs with anything.
		return fmt.Sprintf("call@%d", e.Lparen)
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}
