package lint

// This file is the cross-package half of the directive system. A vet
// unit sees only one package's source: comments (and therefore //tsb:
// directives) on imported packages are invisible, so the facts that
// matter across package boundaries are restated here as a table keyed
// by qualified name. The docsync test asserts this table, the //tsb:
// directives in the source, and the docs/ARCHITECTURE.md latch table
// never drift apart.

// LatchEntry is one row of the latch hierarchy.
type LatchEntry struct {
	Level  int    // 1 is the coarsest; holders may only acquire strictly greater levels
	Name   string // stable latch name used in directives and diagnostics
	Object string // qualified field: pkgpath.Type.field
	Kind   string // mutex | rwmutex | token | state
}

// Latch hierarchy levels with structural meaning. Levels dataLatchMin
// through dataLatchMax are the page-data latches: holding one of these
// in write mode must not reach device I/O (analyzer latchio). Level
// leafLevel mutexes are short leaves; deviceLevel mutexes sit below the
// leaves because the file stores and the buffer pool call into devices
// while holding their own mutex.
const (
	dataLatchMin = 5
	dataLatchMax = 6
	leafLevel    = 7
	deviceLevel  = 8
)

// LatchTable returns the repo's latch hierarchy. docs/ARCHITECTURE.md
// renders the same rows between the tsb:latch-table markers.
func LatchTable() []LatchEntry {
	return []LatchEntry{
		{1, "checkpoint", "repro/internal/db.DB.cpMu", "mutex"},
		{3, "commit-token", "repro/internal/txn.Manager.leaderCh", "token"},
		{4, "wal", "repro/internal/wal.Log.mu", "mutex"},
		{5, "shard", "repro/internal/db.shard.mu", "rwmutex"},
		{6, "secondary", "repro/internal/db.DB.secMu", "rwmutex"},
		{7, "commit-queue", "repro/internal/txn.Manager.qMu", "mutex"},
		{7, "lock-table", "repro/internal/txn.Manager.lockMu", "mutex"},
		{7, "buffer-pool", "repro/internal/buffer.Pool.mu", "mutex"},
		{7, "page-file", "repro/internal/pagestore.PageFile.mu", "mutex"},
		{7, "burn-file", "repro/internal/pagestore.BurnFile.mu", "mutex"},
		{7, "server", "repro/internal/server.Server.mu", "mutex"},
		{7, "server-cursors", "repro/internal/server.cursorTable.mu", "mutex"},
		{8, "magnetic-disk", "repro/internal/storage.MagneticDisk.mu", "mutex"},
		{8, "faulty-pages", "repro/internal/storage.FaultyPages.mu", "mutex"},
		{8, "worm-disk", "repro/internal/storage.WORMDisk.mu", "mutex"},
		{8, "tear-plan", "repro/internal/storage.TearPlan.mu", "mutex"},
	}
}

// latchLevels maps latch name -> level for the built-in table.
func latchLevels() map[string]int {
	m := make(map[string]int)
	for _, e := range LatchTable() {
		m[e.Name] = e.Level
	}
	return m
}

// builtinFuncFacts are the cross-package function facts: what imported
// functions acquire, wrap, or do. Keys are funcQName strings. These
// mirror //tsb: directives on the declarations themselves (checked by
// the docsync test via directive scanning).
func builtinFuncFacts() map[string]*FuncFacts {
	return map[string]*FuncFacts{
		// The commit leadership token. Quiesce runs its argument with
		// the token held; Update/View-style entry points take it scoped
		// inside the call.
		"repro/internal/txn.Manager.Quiesce": {Wraps: []string{"commit-token"}},
		"repro/internal/db.DB.quiesceTimed":  {Wraps: []string{"commit-token"}},
		"repro/internal/txn.Txn.Commit":      {AcquiresScoped: []string{"commit-token", "commit-queue"}},

		// The tree mutator that reaches the burn device: a time split
		// migrates its historical half inline (§3.4).
		"repro/internal/core.Tree.Insert": {IO: true},

		// Store-level insert paths forward to Tree.Insert.
		"repro/internal/txn.Store.Insert":       {IO: true},
		"repro/internal/db.shardedStore.Insert": {IO: true},

		// Secondary index maintenance inserts into its own tree (and so
		// can split/burn inline).
		"repro/internal/secondary.Index.Apply": {IO: true},

		// Durable write stream: WAL appends, page-file batches, WORM
		// burns, compaction. All are device I/O and all return sticky
		// errors that must not be discarded.
		"repro/internal/wal.Log.AppendBatch":                   {IO: true, Sticky: true},
		"repro/internal/wal.Log.Rotate":                        {IO: true, Sticky: true},
		"repro/internal/wal.Log.RemoveSegmentsBelow":           {IO: true, Sticky: true},
		"repro/internal/wal.WriteCheckpoint":                   {IO: true, Sticky: true, Syncs: true},
		"repro/internal/pagestore.PageFile.WriteBatch":         {IO: true, Sticky: true},
		"repro/internal/pagestore.PageFile.CompleteFlush":      {IO: true, Sticky: true},
		"repro/internal/pagestore.BurnFile.Append":             {IO: true, Sticky: true},
		"repro/internal/pagestore.BurnFile.CompactRegion":      {IO: true, Sticky: true},
		"repro/internal/pagestore.BurnFile.CompleteCompaction": {IO: true, Sticky: true},

		// Close on the write path: dropping the error can drop the last
		// flush. (os.File.Close is handled structurally by stickyerr.)
		"repro/internal/pagestore.PageFile.Close": {Sticky: true},
		"repro/internal/pagestore.BurnFile.Close": {Sticky: true},
		"repro/internal/wal.Log.Close":            {Sticky: true},
		"repro/internal/db.DB.Close":              {Sticky: true},
	}
}

// ioPackages are packages whose write-side methods count as device I/O
// for latchio even without a table entry: a method named Sync, Write,
// WriteAt, or Truncate on a type from one of these packages writes to a
// device.
var ioPackages = map[string]bool{
	"os":                       true,
	"repro/internal/storage":   true,
	"repro/internal/pagestore": true,
	"repro/internal/wal":       true,
}

// obsPackages are packages whose calls are never device I/O: the
// observability substrate records with atomic operations only, so
// instrumentation is legal under any latch. The structural matchers
// (Sync-shaped methods in particular) skip callees from these packages
// before any other rule fires.
var obsPackages = map[string]bool{
	"repro/internal/obs": true,
}

// osIOFuncs are package-level os functions that touch the filesystem
// (the write side; reads are deliberately not flagged).
var osIOFuncs = map[string]bool{
	"Rename":    true,
	"Remove":    true,
	"RemoveAll": true,
	"Create":    true,
	"OpenFile":  true,
	"WriteFile": true,
	"MkdirAll":  true,
	"Mkdir":     true,
	"Truncate":  true,
}

// ioMethodNames are method names that count as write-side device I/O
// when the receiver type lives in an ioPackages package.
var ioMethodNames = map[string]bool{
	"Sync":     true,
	"Write":    true,
	"WriteAt":  true,
	"Truncate": true,
}
