package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package loading for the module-wide self-check: the loader shells out
// to `go list -export -deps -json`, which compiles export data for every
// dependency into the build cache, then type-checks only the target
// packages' source (test files excluded) against that export data. No
// network, no module downloads, standard library only.

type listPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct {
		Path      string
		Main      bool
		GoVersion string
	}
	DepOnly bool
	Error   *struct{ Err string }
}

// LoadPackages loads and type-checks the module packages matched by
// patterns, rooted at dir (a directory inside the module).
func LoadPackages(dir string, patterns ...string) ([]*Unit, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exportFile := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.Module != nil && p.Module.Main {
			cp := p
			targets = append(targets, &cp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var units []*Unit
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(p.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", path, err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if path == "unsafe" {
					return types.Unsafe, nil
				}
				return imp.Import(path)
			}),
			Sizes: types.SizesFor("gc", envGOARCH()),
		}
		if p.Module != nil && p.Module.GoVersion != "" {
			conf.GoVersion = "go" + p.Module.GoVersion
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		units = append(units, &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info})
	}
	return units, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func envGOARCH() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	out, err := exec.Command("go", "env", "GOARCH").Output()
	if err != nil {
		return "amd64"
	}
	return string(bytes.TrimSpace(out))
}
