package lint

// The self-check: the whole module must vet clean. Every deliberate
// exception to an invariant is a //tsb:allow at the site, so "clean"
// here means zero *unsuppressed* diagnostics — exactly what the CI
// `go vet -vettool=tsbvet ./...` gate enforces, checked again here so
// `go test ./...` alone catches a violation.

import (
	"go/types"
	"sort"
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
	for _, u := range loadRepo(t) {
		for _, d := range RunAll(u) {
			t.Errorf("%s", d)
		}
	}
}

// TestBuiltinFuncFactsResolve fails on any key of builtinFuncFacts that
// names no function or method declared in the module: a stale key gives
// its facts to nothing, silently.
func TestBuiltinFuncFactsResolve(t *testing.T) {
	declared := make(map[string]bool)
	for _, u := range loadRepo(t) {
		for _, obj := range u.Info.Defs {
			if f, ok := obj.(*types.Func); ok {
				declared[funcQName(f)] = true
			}
		}
	}
	var stale []string
	for key := range builtinFuncFacts() {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("builtinFuncFacts key %q matches no function in the module", key)
	}
}
