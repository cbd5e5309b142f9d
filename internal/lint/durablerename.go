package lint

import (
	"go/ast"
	"go/token"
)

// DurableRenameAnalyzer preserves the checkpoint install contract: an
// os.Rename that publishes a file (the tmp+fsync+rename protocol from
// docs/ARCHITECTURE.md's durability section) must be dominated by a
// Sync of the temp file. The approximation is lexical: within the
// function containing the rename, some .Sync() call (or a call to a
// //tsb:syncs-annotated helper) must appear earlier in source order.
// Renames that genuinely need no sync (none today) take
// //tsb:allow durablerename.
var DurableRenameAnalyzer = &Analyzer{
	Name: "durablerename",
	Run:  runDurableRename,
}

func runDurableRename(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRenames(pass, fd.Body)
		}
	}
}

func checkRenames(pass *Pass, body *ast.BlockStmt) {
	var syncs, renames []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.Unit, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "Rename" {
			renames = append(renames, call.Pos())
			return true
		}
		if fn.Name() == "Sync" {
			syncs = append(syncs, call.Pos())
			return true
		}
		if ff := pass.Facts.funcFacts(fn); ff != nil && ff.Syncs {
			syncs = append(syncs, call.Pos())
		}
		return true
	})
	for _, r := range renames {
		synced := false
		for _, s := range syncs {
			if s < r {
				synced = true
				break
			}
		}
		if !synced {
			pass.Reportf(r, "durablerename: os.Rename installs a file without a preceding Sync of the temp file; fsync before rename or annotate //tsb:allow durablerename")
		}
	}
}
