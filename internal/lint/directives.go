package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// LatchSpec describes one latch declared by a //tsb:latch directive.
type LatchSpec struct {
	Name   string // stable latch name used in directives and diagnostics
	Level  int    // 1 is the coarsest; holders may only acquire strictly greater levels
	Kind   string // mutex | rwmutex | token, from the field's type
	Object string // qualified field: pkgpath.Type.field
}

// FuncFacts describes what a function does to the latch state or the
// devices, from the //tsb: directives on its declaration.
type FuncFacts struct {
	IO     bool     // performs device I/O
	Sticky bool     // its error result must not be discarded
	Syncs  bool     // performs an fsync (satisfies durablerename)
	Locks  []string // takes and releases these latches inside the call
	Wraps  []string // runs its func-typed argument with these held
}

// Facts is everything the analyzers know beyond the type information:
// the directives of every unit in the run, so a call in one package
// finds the facts declared in another.
type Facts struct {
	latches map[types.Object]*LatchSpec // latch fields (all unexported: used only in their own unit)
	byName  map[string]*LatchSpec       // latch name -> spec
	fn      map[string]*FuncFacts       // funcQName -> facts

	// allow: filename -> line of the //tsb:allow comment -> analyzers.
	allow map[string]map[int]map[string]bool

	summaries map[*types.Func]*funcSummary
}

// buildFacts parses every //tsb: directive in the units, then
// summarizes every function body against the result.
func buildFacts(units []*Unit) *Facts {
	f := &Facts{
		latches:   make(map[types.Object]*LatchSpec),
		byName:    make(map[string]*LatchSpec),
		fn:        make(map[string]*FuncFacts),
		allow:     make(map[string]map[int]map[string]bool),
		summaries: make(map[*types.Func]*funcSummary),
	}
	for _, u := range units {
		for _, file := range u.Files {
			f.scanFile(u, file)
		}
	}
	for _, u := range units {
		f.buildSummaries(u)
	}
	return f
}

func (f *Facts) scanFile(u *Unit, file *ast.File) {
	// Line-level allow directives can appear in any comment group.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if names, ok := parseAllow(c.Text); ok {
				pos := u.Fset.Position(c.Pos())
				byLine := f.allow[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					f.allow[pos.Filename] = byLine
				}
				set := byLine[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					byLine[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}

	addFunc := func(name *ast.Ident, doc *ast.CommentGroup) {
		if ff := funcFactsFromDoc(doc); ff != nil {
			if fn, ok := u.Info.Defs[name].(*types.Func); ok {
				f.fn[funcQName(fn)] = ff
			}
		}
	}
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			addFunc(decl.Name, decl.Doc)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				switch t := ts.Type.(type) {
				case *ast.StructType:
					for _, field := range t.Fields.List {
						f.addLatch(u, ts.Name.Name, field)
					}
				case *ast.InterfaceType:
					for _, m := range t.Methods.List {
						if len(m.Names) == 1 {
							addFunc(m.Names[0], m.Doc)
						}
					}
				}
			}
		}
	}
}

// addLatch records a //tsb:latch directive on a struct field of the
// named type typeName.
func (f *Facts) addLatch(u *Unit, typeName string, field *ast.Field) {
	spec := latchSpecFromComments(field.Doc, field.Comment)
	if spec == nil || len(field.Names) == 0 {
		return
	}
	obj := u.Info.Defs[field.Names[0]]
	if obj == nil {
		return
	}
	spec.Kind = kindOfType(obj.Type())
	spec.Object = u.Pkg.Path() + "." + typeName + "." + obj.Name()
	f.latches[obj] = spec
	f.byName[spec.Name] = spec
}

func kindOfType(t types.Type) string {
	if _, ok := types.Unalias(t).(*types.Chan); ok {
		return "token"
	}
	if strings.HasSuffix(t.String(), "sync.RWMutex") {
		return "rwmutex"
	}
	return "mutex"
}

// latchSpecFromComments parses //tsb:latch level=N name=X from a field's
// doc or trailing comment.
func latchSpecFromComments(groups ...*ast.CommentGroup) *LatchSpec {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "tsb:latch") {
				continue
			}
			spec := &LatchSpec{}
			for _, kv := range strings.Fields(strings.TrimPrefix(text, "tsb:latch")) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "level":
					spec.Level, _ = strconv.Atoi(v)
				case "name":
					spec.Name = v
				}
			}
			if spec.Name != "" && spec.Level > 0 {
				return spec
			}
		}
	}
	return nil
}

func funcFactsFromDoc(doc *ast.CommentGroup) *FuncFacts {
	if doc == nil {
		return nil
	}
	var ff *FuncFacts
	ensure := func() *FuncFacts {
		if ff == nil {
			ff = &FuncFacts{}
		}
		return ff
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "tsb:") {
			continue
		}
		verb, rest, _ := strings.Cut(strings.TrimPrefix(text, "tsb:"), " ")
		args := strings.Fields(rest)
		switch verb {
		case "io":
			ensure().IO = true
		case "sticky":
			ensure().Sticky = true
		case "syncs":
			ensure().Syncs = true
		case "locks":
			ensure().Locks = append(ensure().Locks, args...)
		case "wraps":
			ensure().Wraps = append(ensure().Wraps, args...)
		}
	}
	return ff
}

func parseAllow(comment string) ([]string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "tsb:allow") {
		return nil, false
	}
	rest := strings.TrimPrefix(text, "tsb:allow")
	// Allow trailing prose after a "--" separator:
	//   //tsb:allow latchio -- a time split burns under the shard latch
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	names := strings.Fields(rest)
	return names, len(names) > 0
}

// allowed reports whether a diagnostic from the named analyzer at the
// given position is suppressed by a //tsb:allow directive on the same
// line or the preceding line.
func (f *Facts) allowed(analyzer string, position token.Position) bool {
	byLine := f.allow[position.Filename]
	return byLine[position.Line][analyzer] || byLine[position.Line-1][analyzer]
}

// funcFacts resolves the directive facts of a callee, wherever it is
// declared.
func (f *Facts) funcFacts(fn *types.Func) *FuncFacts {
	if fn == nil {
		return nil
	}
	return f.fn[funcQName(fn.Origin())]
}
