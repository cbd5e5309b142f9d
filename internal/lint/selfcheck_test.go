package lint

// The self-check: the whole module must vet clean. Every deliberate
// exception to an invariant is a //tsb:allow at the site, so "clean"
// here means zero *unsuppressed* diagnostics. This test is the runner:
// `go test ./internal/lint` (and so `go test ./...`) enforces the
// invariants.

import (
	"go/ast"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repoUnits loads and type-checks every package of the module once per
// test binary.
var repoUnits = sync.OnceValues(func() ([]*Unit, error) {
	return LoadPackages("../..", "./...")
})

func loadRepo(t *testing.T) []*Unit {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	units, err := repoUnits()
	if err != nil {
		t.Fatalf("load packages: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("LoadPackages returned no packages")
	}
	return units
}

func TestRepoHasNoUnsuppressedDiagnostics(t *testing.T) {
	for _, d := range Run(loadRepo(t), Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestBuiltinFuncFactsResolve fails on any function directive whose
// declaration no call in the module resolves to statically: facts on a
// method every caller reaches through an interface (or through nothing)
// apply to no call site, silently. So does a directive of a kind the
// analyzers do not parse.
func TestBuiltinFuncFactsResolve(t *testing.T) {
	units := loadRepo(t)
	kinds := map[string]bool{"latch": true, "wraps": true, "locks": true, "io": true, "sticky": true, "syncs": true, "allow": true}
	called := make(map[string]bool)
	for _, u := range units {
		for _, file := range u.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(c.Text, "//tsb:"); ok {
						if kind, _, _ := strings.Cut(rest, " "); !kinds[kind] {
							t.Errorf("%s: unknown directive kind //tsb:%s", u.Fset.Position(c.Pos()), kind)
						}
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := staticCallee(u, call); fn != nil {
						called[funcQName(fn.Origin())] = true
					}
				}
				return true
			})
		}
	}
	facts := buildFacts(units)
	if len(facts.fn) == 0 {
		t.Fatal("no function directives found in the module")
	}
	var stale []string
	for key := range facts.fn {
		if !called[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("//tsb: directive on %s: no call in the module resolves to it", key)
	}
}
