// Package lint is the repo's static checker for the latch-hierarchy
// and durability-ordering invariants documented in docs/ARCHITECTURE.md
// ("Statically enforced invariants"). Its runner is its own test:
// `go test ./internal/lint` loads every package of the module, builds
// one set of facts from the //tsb: directives of all of them, and fails
// on any unsuppressed diagnostic.
//
// The package deliberately depends only on the standard library: the
// build environment pins the toolchain and carries no module cache, so
// the usual golang.org/x/tools/go/analysis machinery is rebuilt here in
// miniature. An Analyzer receives one type-checked package (a Unit) and
// the module-wide Facts, and reports Diagnostics.
//
// Invariants are declared in source with //tsb: directives, each stated
// once, on the declaration it describes:
//
//	//tsb:latch level=N name=X   on a mutex or token-channel field: the
//	                             field is latch X at hierarchy level N
//	                             (1 is the coarsest; a holder may only
//	                             acquire strictly greater levels).
//	//tsb:wraps X                this function runs its function-typed
//	                             argument with latch X held.
//	//tsb:locks X...             this function takes and releases these
//	                             latches inside the call.
//	//tsb:io                     this function performs device I/O.
//	//tsb:sticky                 its error result must not be discarded.
//	//tsb:syncs                  this function fsyncs what the caller
//	                             wrote (satisfies durablerename).
//	//tsb:allow <analyzer>       suppress <analyzer> diagnostics on the
//	                             same or the next line.
//
// Function directives sit in the doc comment of a function, a method or
// an interface method; a call through an interface carries the facts of
// the interface method. Every suppression is grep-able: the only way to
// silence a diagnostic is a visible //tsb:allow at the offending site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Unit is one type-checked package: the input to the analyzers.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// newInfo returns a types.Info with all the maps the analyzers need
// populated.
func newInfo() *types.Info {
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
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one Unit plus the module-wide
// facts, and collects diagnostics (applying //tsb:allow suppression
// centrally).
type Pass struct {
	*Unit
	Analyzer *Analyzer
	Facts    *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //tsb:allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Facts.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LatchOrderAnalyzer,
		LatchIOAnalyzer,
		UnlockPathAnalyzer,
		DurableRenameAnalyzer,
		StickyErrAnalyzer,
	}
}

// Run builds the facts of all the units, runs the given analyzers over
// each unit, and returns the unsuppressed diagnostics sorted by
// position.
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	facts := buildFacts(units)
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range analyzers {
			a.Run(&Pass{Unit: u, Analyzer: a, Facts: facts, diags: &diags})
		}
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

// funcQName renders a *types.Func as the qualified name its facts are
// keyed by: "pkgpath.Func" or "pkgpath.Recv.Method", where Recv is the
// named receiver type or, for an interface method, the interface
// (pointer receivers are not distinguished).
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
// sh.mu or d.cpMu, so Lock/Unlock pairs on the same expression match.
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
