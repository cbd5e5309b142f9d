package lint

// The fixture harness: a miniature analysistest. Each analyzer has a
// package of fixture files under testdata/src/<analyzer>/ annotated with
// the usual `// want` comments:
//
//	f.Sync() // want `stickyerr: error result of File\.Sync is discarded`
//
// A want comment holds one or more quoted regular expressions (raw
// backquoted or double-quoted); each must match exactly one diagnostic
// reported on that line, and every diagnostic must be claimed by a want.
// Fixtures are type-checked against the real standard library via the
// source importer, so os.File, sync.Mutex etc. behave as in production
// code.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadFixture parses and type-checks the fixture package
// testdata/src/<name>. A subdirectory of the fixture is type-checked
// first as an importable dependency package whose import path is the
// directory name with "__" read as "/" (so repro__internal__obs is
// importable as "repro/internal/obs") — how a fixture stands in for a
// real repo package the analyzer special-cases by path.
func loadFixture(t *testing.T, name string) *Unit {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		base: importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() {
			path := strings.ReplaceAll(e.Name(), "__", "/")
			imp.pkgs[path] = checkFixturePkg(t, fset, filepath.Join(dir, e.Name()), path, imp, newInfo())
			continue
		}
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}
}

// checkFixturePkg type-checks one fixture dependency directory under
// its synthetic import path.
func checkFixturePkg(t *testing.T, fset *token.FileSet, dir, path string, imp types.Importer, info *types.Info) *types.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dep dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture dep: %v", err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture dep %s: %v", path, err)
	}
	return pkg
}

// fixtureImporter resolves fixture dependency packages before falling
// back to the source importer for the standard library.
type fixtureImporter struct {
	base types.Importer
	pkgs map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	return fi.base.Import(path)
}

// expectation is one `// want` regexp waiting for a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants scans every comment in the unit for want expectations.
func collectWants(t *testing.T, u *Unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range u.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				for _, pat := range parseWantPatterns(t, pos, text[idx+len("want "):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns splits `"re1" `+"`re2`"+` ...` into its quoted parts.
func parseWantPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern", pos)
			}
			pats = append(pats, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Walk to the closing quote, honoring escapes, then Unquote.
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern", pos)
			}
			pat, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", pos, s[:end+1], err)
			}
			pats = append(pats, pat)
			s = strings.TrimSpace(s[end+1:])
		default:
			return pats // trailing prose after the patterns
		}
	}
	return pats
}

// runFixture runs one analyzer over its fixture package and matches the
// diagnostics against the want comments.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	u := loadFixture(t, name)
	wants := collectWants(t, u)
	diags := Run([]*Unit{u}, []*Analyzer{a})

	var unexpected []string
	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(fmt.Sprintf("%s: %s", d.Analyzer, d.Message)) ||
				w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			unexpected = append(unexpected, d.String())
		}
	}
	for _, d := range unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments: it cannot demonstrate the rule", name)
	}
}

func TestLatchOrderFixture(t *testing.T)    { runFixture(t, LatchOrderAnalyzer, "latchorder") }
func TestLatchIOFixture(t *testing.T)       { runFixture(t, LatchIOAnalyzer, "latchio") }
func TestUnlockPathFixture(t *testing.T)    { runFixture(t, UnlockPathAnalyzer, "unlockpath") }
func TestDurableRenameFixture(t *testing.T) { runFixture(t, DurableRenameAnalyzer, "durablerename") }
func TestStickyErrFixture(t *testing.T)     { runFixture(t, StickyErrAnalyzer, "stickyerr") }
