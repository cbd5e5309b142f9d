package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// LatchSpec describes one latch declared by a //tsb:latch directive or
// the built-in table.
type LatchSpec struct {
	Name  string
	Level int
	Kind  string // mutex | rwmutex | token | state
}

// FuncFacts describes what a function does to the latch state or the
// devices, from //tsb: directives on its declaration or the built-in
// table.
type FuncFacts struct {
	IO             bool     // performs device I/O
	Sticky         bool     // its error result must not be discarded
	Syncs          bool     // performs an fsync (satisfies durablerename)
	Handoff        bool     // intentionally returns with a latch held
	Acquires       []string // leaves these latches held on return
	Releases       []string // releases these latches
	AcquiresScoped []string // takes and releases these inside the call
	Wraps          []string // runs its func-typed argument with these held
	Allow          map[string]bool
}

// Facts is everything the analyzers know about one Unit beyond the type
// information: parsed directives plus the built-in cross-package table.
type Facts struct {
	unit *Unit

	fieldLatch map[types.Object]*LatchSpec // latch fields declared in this package
	fn         map[types.Object]*FuncFacts // directive facts on this package's functions
	funcRanges map[types.Object][2]token.Pos
	levels     map[string]int // latch name -> level (builtin + local)

	// allow: filename -> line of the //tsb:allow comment -> analyzers.
	allow map[string]map[int]map[string]bool
	// funcAllow: analyzers allowed for entire function body ranges.
	funcAllow []allowRange

	builtinFn map[string]*FuncFacts

	summaries map[*types.Func]*funcSummary
}

type allowRange struct {
	start, end token.Pos
	analyzers  map[string]bool
}

// BuildFacts parses every //tsb: directive in the unit and merges the
// built-in table.
func BuildFacts(u *Unit) *Facts {
	f := &Facts{
		unit:       u,
		fieldLatch: make(map[types.Object]*LatchSpec),
		fn:         make(map[types.Object]*FuncFacts),
		funcRanges: make(map[types.Object][2]token.Pos),
		levels:     latchLevels(),
		allow:      make(map[string]map[int]map[string]bool),
		builtinFn:  builtinFuncFacts(),
		summaries:  make(map[*types.Func]*funcSummary),
	}
	for _, file := range u.Files {
		f.scanFile(file)
	}
	f.buildSummaries()
	return f
}

func (f *Facts) scanFile(file *ast.File) {
	// Line-level allow directives can appear in any comment group.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if names, ok := parseAllow(c.Text); ok {
				pos := f.unit.Fset.Position(c.Pos())
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

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				spec := latchSpecFromComments(field.Doc, field.Comment)
				if spec == nil || len(field.Names) == 0 {
					continue
				}
				if spec.Kind == "" {
					spec.Kind = kindOfFieldType(f.unit, field)
				}
				if obj := f.unit.Info.Defs[field.Names[0]]; obj != nil {
					f.fieldLatch[obj] = spec
					f.levels[spec.Name] = spec.Level
				}
			}
		case *ast.FuncDecl:
			ff := funcFactsFromDoc(n.Doc)
			if ff == nil {
				return true
			}
			if obj := f.unit.Info.Defs[n.Name]; obj != nil {
				f.fn[obj] = ff
				if n.Body != nil {
					f.funcRanges[obj] = [2]token.Pos{n.Body.Pos(), n.Body.End()}
					if len(ff.Allow) > 0 {
						f.funcAllow = append(f.funcAllow, allowRange{n.Body.Pos(), n.Body.End(), ff.Allow})
					}
				}
			}
		}
		return true
	})
}

func kindOfFieldType(u *Unit, field *ast.Field) string {
	tv, ok := u.Info.Types[field.Type]
	if !ok {
		return "mutex"
	}
	t := tv.Type
	if _, ok := types.Unalias(t).(*types.Chan); ok {
		return "token"
	}
	s := t.String()
	switch {
	case strings.HasSuffix(s, "sync.RWMutex"):
		return "rwmutex"
	case strings.HasSuffix(s, "sync.Mutex"):
		return "mutex"
	case s == "bool":
		return "state"
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
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					continue
				}
				switch k {
				case "level":
					if lv, err := strconv.Atoi(v); err == nil {
						spec.Level = lv
					}
				case "name":
					spec.Name = v
				case "kind":
					spec.Kind = v
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
		case "handoff":
			ensure().Handoff = true
		case "acquires":
			ensure().Acquires = append(ensure().Acquires, args...)
		case "releases":
			ensure().Releases = append(ensure().Releases, args...)
		case "locks":
			ensure().AcquiresScoped = append(ensure().AcquiresScoped, args...)
		case "wraps":
			ensure().Wraps = append(ensure().Wraps, args...)
		case "allow":
			e := ensure()
			if e.Allow == nil {
				e.Allow = make(map[string]bool)
			}
			for _, a := range args {
				e.Allow[a] = true
			}
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
	if len(names) == 0 {
		return nil, false
	}
	return names, true
}

// allowed reports whether a diagnostic from the named analyzer at the
// given position is suppressed by a //tsb:allow directive on the same
// line, the preceding line, or an enclosing annotated function.
func (f *Facts) allowed(analyzer string, position token.Position, pos token.Pos) bool {
	if byLine := f.allow[position.Filename]; byLine != nil {
		for _, line := range [2]int{position.Line, position.Line - 1} {
			if set := byLine[line]; set != nil && (set[analyzer] || set["all"]) {
				return true
			}
		}
	}
	for _, r := range f.funcAllow {
		if pos >= r.start && pos < r.end && (r.analyzers[analyzer] || r.analyzers["all"]) {
			return true
		}
	}
	return false
}

// latchOf resolves the latch spec (if any) for a mutex/channel selector
// expression's field object.
func (f *Facts) latchOf(obj types.Object) *LatchSpec {
	if obj == nil {
		return nil
	}
	return f.fieldLatch[obj]
}

// funcFacts resolves directive facts for a callee: local directives
// first, then the built-in cross-package table.
func (f *Facts) funcFacts(fn *types.Func) *FuncFacts {
	if fn == nil {
		return nil
	}
	if ff, ok := f.fn[fn.Origin()]; ok {
		return ff
	}
	return f.builtinFn[funcQName(fn)]
}

// levelOf returns the hierarchy level for a latch name (0 if unknown).
func (f *Facts) levelOf(name string) int { return f.levels[name] }

func (f *Facts) specForName(name string) *LatchSpec {
	lv := f.levels[name]
	if lv == 0 {
		return nil
	}
	return &LatchSpec{Name: name, Level: lv}
}
