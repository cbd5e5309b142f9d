// Package db is the public face of the reproduction: a multiversion,
// timestamped database engine with a non-deletion policy, backed by
// Time-Split B-trees over a magnetic disk (current data) and a write-once
// optical disk (historical data) — simulated in memory, or files in a
// directory — with transactions, read-only queries that take no logical
// locks, and secondary indexes — the complete system of Lomet &
// Salzberg, SIGMOD 1989.
//
// # Sharding and concurrency
//
// The key space is range-partitioned across Config.Shards independent
// TSB-trees (shard order equals key order, so range queries concatenate
// per-shard results). The concurrency guarantees, precisely:
//
//   - Read-only transactions take no logical record locks and never wait
//     for a lock (§4.1). Obtaining a snapshot timestamp (ReadOnly/ReadAt)
//     is a wait-free atomic clock read.
//   - Reads are NOT wait-free end to end: each per-shard tree structure
//     is protected by a reader/writer latch, so a read briefly shares a
//     shard latch and can wait for an in-progress page split on that one
//     shard. Readers never block readers, and never touch shards outside
//     their key range.
//   - An updater's write lock on a key is its pending version (§4), so
//     a write takes one latch, its shard's; another transaction's write
//     of the key fails fast with txn.ErrLockConflict (no-wait). Commit
//     posting is serialized by a
//     group-commit leadership token: concurrently-arriving committers
//     coalesce into one batch — consecutive commit timestamps, one
//     commit-log append + fsync (durable mode), one clock advance — so
//     commit timestamps reach every shard in order and the shared clock
//     advances only after a batch is fully posted; any snapshot at
//     time <= Now() is consistent.
//   - A transaction's secondary-index entries are versions it writes,
//     derived when it commits and logged and posted with its own. Each
//     index tree has a shard latch of its own.
//
// # Durability
//
// With Config.Dir set, the database is durable and that directory is the
// database: the two devices are disk files in it (internal/pagestore) —
// a mutable page file with a per-page CRC for the magnetic disk, an
// append-only burn file of CRC-guarded sectors for the WORM — beside a
// write-ahead log (internal/wal) and one small checkpoint file. With Dir
// empty the same engine runs on simulated in-memory devices and nothing
// survives the process. The device choice is the only difference: there
// is one on-disk format and one recovery procedure. The contract,
// precisely:
//
//   - Committed = logged + fsynced. Update/Commit return only after the
//     transaction's redo record (its stamped write set and index writes)
//     is durable in the log. Group commit amortizes the fsync: committers arriving
//     while the batch leader fsyncs join the next batch, so N
//     concurrent committers cost far fewer than N fsyncs
//     (Stats().WAL's Records/Syncs is the measured factor).
//   - A crash loses nothing acknowledged. An unacknowledged commit (in
//     flight at the crash) is recovered either fully or not at all — a
//     log frame is exactly one transaction under a CRC — and
//     uncommitted data is never trusted, so recovery needs no undo log.
//   - What a checkpoint flushes: the buffer pool runs writeback with a
//     dirty-page table (strictly no-steal — a dirty page is never
//     evicted, never written outside a checkpoint), and a checkpoint
//     (DB.Checkpoint, or the background one, see
//     Config.CheckpointBytes) writes exactly the dirty pages — O(dirty),
//     not O(database) — through a rollback journal (old contents
//     fsynced before any slot is overwritten), then fsyncs both device
//     files, then installs a metadata-only checkpoint: tree roots, page
//     allocator, WORM burned boundary, all at one WAL boundary. Log
//     segments the checkpoint covers are then deleted. The flush
//     pre-runs with commits flowing; only the boundary capture (the log
//     rotation and a walk of memory, no page I/O) briefly holds the
//     commit token plus every shard's read latch.
//   - When checkpoints happen: Open and Close each end at one, and in
//     between the log append that crosses Config.CheckpointBytes
//     triggers the background one.
//   - What recovery trusts: page CRCs (verified on every read), the
//     rollback journal (a torn flush restores the previous boundary
//     image before anything reads it), the burn file up to the
//     checkpointed boundary (fsynced), and the WAL tail, which stops at
//     the first torn frame. The unsynced WORM tail is verified sector
//     by sector and clipped at the first torn frame; intact orphan
//     burns stay as dead waste, as they would on real write-once media:
//     Stats().Device.DeadBytes reports them, and nothing reclaims them.
//     Only a crash leaves them; a clean restart adds none.
//     Pending versions of transactions in flight at the boundary are
//     erased from the image (the checkpoint lists exactly those the
//     images hold; one that is missing fails Open as corruption),
//     then the WAL tail past the boundary replays into every tree — so
//     recovery reads the checkpoint metadata plus O(log tail), never
//     the whole database, and applies every commit to every tree
//     exactly once.
//
// # Migration
//
// Historical data migrates inline, node at a time, as the paper's §3.4
// specifies: a time split appends its historical half to the write-once
// device as part of the split, under the owning shard's write latch, and
// the index entry that references the burned node is installed by the
// same split. A reader therefore sees the tree before or after the
// split, never between. Live inserts, recovery replay and secondary
// indexes all take this one path. Stats().Migrator.SplitLatchNanos is the
// cumulative latch time spent splitting, burns included.
//
// # Streaming reads
//
// Range reads are cursors: Cursor (and the iter.Seq2 form, Range) yields
// a snapshot lazily, page by page, with ScanOptions{Limit, Reverse,
// After, At, From, To} for pagination, descending order, per-scan time
// travel, and temporal windows. The latch contract, precisely: a cursor
// holds NO latch between Next calls. For snapshot cursors, each Next
// read-latches at most one shard, for the duration of a single leaf-page
// fetch (one root-to-leaf descent), then releases it before returning;
// crossing a shard boundary hands the latch off to the next shard in key
// order. Window-mode cursors (From/To set) page the same way: each fill
// is one leaf-bounded key page of the temporal range under one shard's
// read latch, so latch hold and allocation per Next are bounded by a
// leaf, not by a shard's window (reverse windows excepted: see
// ScanOptions.Reverse). Consistency across all hand-offs comes from the
// snapshot timestamp, not from latches — versions visible at a fixed
// time are immutable under the non-deletion policy — so a paused or
// abandoned cursor never blocks a writer and a Limit=1 snapshot cursor
// costs O(tree height) page reads, not a full scan. There is no second
// range-read path, and DB has no slice-returning scans: a snapshot is
// ReadAt(t).Scan (a cursor drained), a temporal window is Cursor with
// From/To, a diff is QueryAt(Now(), query.Diff(...)) (a fold over a
// window cursor), and a secondary fetch is LookupSecondary followed by
// ReadAt(t).Get of each primary key.
//
// Typical use:
//
//	d, _ := db.Open(db.Config{Shards: 8})
//	d.Update(func(tx *txn.Txn) error { return tx.Put(k, v) })
//	v, ok, _ := d.Get(k)              // current version
//	v, ok, _ = d.GetAsOf(k, t)        // rollback query
//	snap := d.ReadOnly()              // snapshot reader, no logical locks
//
//	// First page of the snapshot, two rows at a time:
//	cur := snap.Cursor(low, high, db.ScanOptions{Limit: 2})
//	for cur.Next() {
//		use(cur.Version())
//	}
//	// Next page, strictly after the last key seen, iterator form:
//	for v, err := range snap.Range(low, high, db.ScanOptions{After: lastKey, Limit: 2}) {
//		...
//	}
package db

import (
	"fmt"
	"iter"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/secondary"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Config configures a database.
type Config struct {
	// Shards is the number of key-range partitions, each an independent
	// TSB-tree with its own latch (default 1, max record.MaxShards).
	// Shard boundaries are fixed at open time by record.ShardBoundary.
	Shards int
	// PageSize is the magnetic page size in bytes (default 4096).
	PageSize int
	// SectorSize is the WORM sector size in bytes (default 1024, the
	// paper's "typically about one kilobyte").
	SectorSize int
	// BufferPages is the page-cache capacity shared by all shards.
	// 0 selects the default of 256; a negative value is refused.
	BufferPages int
	// Policy is the TSB-tree splitting policy (default PolicyLastUpdate,
	// the paper's refinement).
	Policy core.Policy
	// PlatterSectors/Drives enable the simulated optical-library model
	// (0 = one always-mounted disk). The simulated devices charge
	// storage.DefaultCostModel's latencies.
	PlatterSectors uint64
	Drives         int
	// MaxKeySize / MaxValueSize bound record sizes (see core.Config).
	MaxKeySize   int
	MaxValueSize int
	// LeafCapacity / IndexCapacity override the logical node sizes, in
	// encoded bytes, at which nodes split (default and maximum: PageSize).
	// A value below PageSize leaves the rest of each page unused.
	LeafCapacity  int
	IndexCapacity int

	// Dir makes the database durable: the magnetic and WORM devices are
	// disk files in this directory (internal/pagestore) instead of
	// in-memory simulations, beside the write-ahead log and the
	// checkpoint. Open creates the directory if needed, or recovers the
	// database it finds there. A commit is acknowledged only once its
	// redo record is fsynced — group commit batches concurrent
	// committers into one fsync — and a checkpoint flushes the dirty
	// pages, O(dirty) not O(database). See the package documentation's
	// durability contract. Reopening adopts the directory's shard count,
	// page and sector sizes and tree parameters. PlatterSectors/Drives
	// do not apply to a durable database: they describe the simulated
	// devices only.
	Dir string
	// PagedDevices is ignored.
	//
	// Deprecated: Dir alone selects paged devices.
	PagedDevices bool
	// BackgroundMigration is ignored.
	//
	// Deprecated: every time split migrates its historical half inline
	// (see the package documentation's migration section).
	BackgroundMigration bool
	// CheckpointBytes triggers a background incremental checkpoint
	// (which truncates the log): the log append that leaves this many
	// bytes since the last one signals it. 0 selects 4 MiB; negative
	// disables it, though Open and Close still end at a checkpoint and
	// DB.Checkpoint still works. Durable databases only.
	CheckpointBytes int64
	// Secondaries registers secondary indexes at open time, equivalent
	// to calling CreateSecondary for each before any writes. Reopening
	// a durable database that had secondary indexes REQUIRES the same
	// set here: extraction functions are code, not data, and future
	// writes need them (recovery replays logged entries and runs none).
	Secondaries map[string]SecondaryExtract

	// logWrap wraps every log and checkpoint file a durable database
	// opens; crash tests inject torn-write faults through it.
	logWrap func(storage.LogFile) storage.LogFile
	// blockWrap wraps a durable database's device files (page file,
	// burn file, rollback journals); crash tests inject torn positioned
	// writes through it.
	blockWrap func(storage.BlockFile) storage.BlockFile
}

// SecondaryExtract derives the secondary key from a record value. A nil
// return means the record has no entry in that index. It must be a pure
// function of the value, safe for concurrent use: every committer runs
// it, with no latch held, on the new and the replaced value of each key
// it wrote. A write whose key the index refuses (one holding 0x00, or
// longer with its primary key than 2×64 bytes), or an extractor that
// panics, aborts its transaction.
type SecondaryExtract func(value []byte) record.Key

// secondaryIndex is one secondary index: its tree, a shard of its own.
type secondaryIndex struct {
	*shard
	name    string
	extract SecondaryExtract
}

// indexes is a set of secondary indexes in registration order, replaced
// whole when one is registered: the txn.Indexes router of commits.
type indexes []*secondaryIndex

// named returns the index called name, or nil.
func (ix indexes) named(name string) *secondaryIndex {
	if i := slices.IndexFunc(ix, func(s *secondaryIndex) bool { return s.name == name }); i >= 0 {
		return ix[i]
	}
	return nil
}

// Derive appends the writes that move cur.Key from old's entries to cur's.
func (ix indexes) Derive(dst []txn.IndexWrite, old record.Version, oldOK bool, cur record.Version) ([]txn.IndexWrite, error) {
	dst = slices.Grow(dst, 2*len(ix))
	for _, s := range ix {
		var oldSkey, newSkey record.Key
		if oldOK {
			oldSkey = s.extract(old.Value)
		}
		if !cur.Tombstone {
			newSkey = s.extract(cur.Value)
		}
		retire, post, err := secondary.Transition(s.tree, cur.Key, oldSkey, newSkey)
		if err != nil {
			return nil, fmt.Errorf("db: secondary %q: %w", s.name, err)
		}
		if retire != nil {
			dst = append(dst, txn.IndexWrite{Index: s.name, Version: record.Version{Key: retire, Tombstone: true}})
		}
		if post != nil {
			dst = append(dst, txn.IndexWrite{Index: s.name, Version: record.Version{Key: post, Value: cur.Key}})
		}
	}
	return dst, nil
}

// Insert posts one stamped index write into its index's tree.
//
//tsb:io
func (ix indexes) Insert(w txn.IndexWrite) error {
	s := ix.named(w.Index)
	if s == nil {
		return fmt.Errorf("db: index write for unknown secondary index %q", w.Index)
	}
	return s.insert(w.Version)
}

// DB is a multiversion database instance. All public methods are safe for
// concurrent use; see the package documentation for what is latched and
// what is wait-free.
type DB struct {
	mag   storage.PageDevice
	pool  *buffer.Pool
	worm  storage.WORMDevice
	store *shardedStore
	tm    *txn.Manager

	// The file-backed devices of a durable database (nil in memory): the
	// same objects as mag/worm, concretely typed for the checkpoint
	// flush protocol.
	pf *pagestore.PageFile
	bf *pagestore.BurnFile
	// epoch is the installed checkpoint epoch.
	epoch uint64

	// deadBytes is the payload carried by write-once runs nothing
	// references — post-crash orphans — i.e. capacity the device
	// counters still report as payload but that no read path can ever
	// reach. Carried across reopens in the checkpoint
	// (wal.PagedMeta.DeadBytes) and folded into
	// Stats().Device.WastedBytes; it only ever grows, as burned sectors
	// do on write-once media.
	deadBytes atomic.Uint64

	// reg names every component's instruments for exposition; events is
	// the background-job span log. Both are built first thing in Open and
	// filled by addSecondary and wireObs, so they are always non-nil on a
	// DB the package returned.
	reg    *obs.Registry
	events *obs.EventLog
	// Checkpoint span durations, and each completed checkpoint's pause
	// (the instrument Stats().Checkpoint is a view over).
	cpHist, cpPause obs.Histogram

	secondaries atomic.Pointer[indexes] // never nil; see addSecondary

	policy core.Policy

	// Durable-database state (nil/zero in memory).
	wal     *wal.Log
	dir     string
	dirLock *os.File // exclusive flock on dir/LOCK, held until Close
	logWrap func(storage.LogFile) storage.LogFile
	// cpMu serializes checkpoints (manual and background). The WAL
	// itself anchors the "bytes since last checkpoint" gauge and says
	// when the background one is due.
	cpMu   sync.Mutex //tsb:latch level=1 name=checkpoint
	cpErr  error      // sticky first background-checkpoint error (under cpMu)
	stopCp chan struct{}
	cpDone sync.WaitGroup
	closed bool
}

func (cfg *Config) withDefaults() error {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > record.MaxShards {
		return fmt.Errorf("db: Shards %d outside [1,%d]", cfg.Shards, record.MaxShards)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.SectorSize == 0 {
		cfg.SectorSize = 1024
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 256
	}
	if cfg.BufferPages < 0 {
		return fmt.Errorf("db: BufferPages %d is negative", cfg.BufferPages)
	}
	if (cfg.Policy == core.Policy{}) {
		cfg.Policy = core.PolicyLastUpdate
	}
	return nil
}

// Open creates a new database on fresh simulated devices — or, when
// cfg.Dir is set, opens the durable database in that directory,
// creating it or recovering whatever a previous process left there,
// yielding exactly the acknowledged commits (see the package
// documentation's durability contract). The device choice is the only
// fork: everything from the trees up is wired the same way, once.
//
// A durable Open always ends at a checkpoint: on a fresh directory it
// seals the shape, after recovery it covers the replayed tail and its
// burns. A replay that applied nothing still gets one: a metadata-only
// install is cheaper than a branch that tests must cover.
func Open(cfg Config) (_ *DB, err error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	d := &DB{
		dir:     cfg.Dir,
		logWrap: cfg.logWrap,
		reg:     obs.NewRegistry(),
		events:  obs.NewEventLog(1024, slowOpThreshold),
	}
	d.secondaries.Store(new(indexes))
	defer func() {
		if err != nil {
			_ = d.releaseFiles()
		}
	}()

	// An installed checkpoint fixes the directory's shape; meta stays nil
	// when there is nothing to reattach to (in memory, or a directory
	// without a sealed checkpoint) and everything below is built fresh.
	durable := cfg.Dir != ""
	var info wal.CheckpointInfo
	if durable {
		if info, err = d.lockAndReadCheckpoint(cfg); err != nil {
			return nil, err
		}
	}
	meta := info.Paged
	if meta != nil {
		cfg.Shards = info.Shards
	}

	// Devices and pool.
	if durable {
		if err := d.openFileDevices(cfg, meta); err != nil {
			return nil, err
		}
	} else {
		d.openSimulatedDevices(cfg)
	}

	// Trees, then secondary indexes: reattached from their checkpointed
	// images, or new.
	trees := make([]*core.Tree, cfg.Shards)
	for i := range trees {
		if meta != nil {
			trees[i], err = core.FromImage(d.pool, d.worm, meta.Shards[i])
		} else {
			trees[i], err = core.New(d.pool, d.worm, core.Config{
				Policy:        cfg.Policy,
				MaxKeySize:    cfg.MaxKeySize,
				MaxValueSize:  cfg.MaxValueSize,
				LeafCapacity:  cfg.LeafCapacity,
				IndexCapacity: cfg.IndexCapacity,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("db: shard %d: %w", i, err)
		}
	}
	d.store = newShardedStore(trees)
	d.policy = trees[0].Policy()
	for _, name := range slices.Sorted(maps.Keys(cfg.Secondaries)) {
		var img *core.TreeImage
		if meta != nil {
			saved := meta.Secondaries[name] // checkExtractors matched the names
			img = &saved
		}
		if err := d.addSecondary(name, cfg.Secondaries[name], img); err != nil {
			return nil, err
		}
	}

	// Recovery: bring the reattached image up to the acknowledged state.
	var lastLSN, nextSeg uint64
	if durable {
		if lastLSN, nextSeg, err = d.recoverTo(info); err != nil {
			return nil, err
		}
	}

	// The clock resumes at the newest committed time recovery produced
	// (the checkpoint clock is a lower bound of it).
	d.tm = txn.NewManager(d.store, max(d.store.Now(), info.Clock))
	if ix := d.indexes(); len(ix) > 0 {
		d.tm.SetIndexes(ix)
	}
	if durable {
		d.wal, err = wal.Open(wal.Options{Dir: cfg.Dir, CheckpointBytes: cfg.CheckpointBytes, WrapFile: cfg.logWrap}, nextSeg, lastLSN)
		if err != nil {
			return nil, err
		}
		d.tm.SetCommitLog(d.wal)
	}
	d.wireObs()

	if durable {
		if err := d.Checkpoint(); err != nil {
			return nil, err
		}
		// Background work starts last, with nothing left that can fail.
		d.stopCp = make(chan struct{})
		d.cpDone.Add(1)
		go d.maintenanceLoop()
	}
	return d, nil
}

// openSimulatedDevices builds the in-memory devices and the write-through
// pool over them.
func (d *DB) openSimulatedDevices(cfg Config) {
	cost := storage.DefaultCostModel()
	d.mag = storage.NewMagneticDisk(cfg.PageSize, cost)
	d.worm = storage.NewWORMDisk(storage.WORMConfig{
		SectorSize:     cfg.SectorSize,
		Cost:           cost,
		PlatterSectors: cfg.PlatterSectors,
		Drives:         cfg.Drives,
	})
	d.pool = buffer.NewPool(d.mag, cfg.BufferPages)
}

// slowOpThreshold is the duration at or above which a completed
// background span (a checkpoint) is copied into the event log's slow-op
// ring.
const slowOpThreshold = 25 * time.Millisecond

// wireObs names every component's instruments in the metric registry
// (addSecondary names each secondary tree's). Called once, by Open,
// after the transaction manager exists.
// Instruments are component-owned struct fields that record from birth;
// registration only names them for exposition, so nothing here is on a
// hot path and order relative to first use does not matter.
func (d *DB) wireObs() {
	d.store.registerMetrics(d.reg)
	d.tm.RegisterMetrics(d.reg)
	d.pool.RegisterMetrics(d.reg)
	if d.wal != nil {
		d.wal.RegisterMetrics(d.reg)
	}
	if d.pf != nil {
		d.pf.RegisterMetrics(d.reg)
	}
	if d.bf != nil {
		d.bf.RegisterMetrics(d.reg)
	}
	d.reg.RegisterHistogram("tsb_checkpoint_seconds", "whole-checkpoint duration, quiesce window included", &d.cpHist)
	d.reg.RegisterHistogram("tsb_checkpoint_pause_seconds", "commit-posting pause of each completed checkpoint: its boundary capture's quiesce window", &d.cpPause)
}

// Metrics returns the database's metric registry: every engine
// instrument — commit latency, fsync latency, shard latch contention,
// buffer hit rates, device latency — named for
// exposition (obs.WritePrometheus / WriteJSON). Always non-nil.
func (d *DB) Metrics() *obs.Registry { return d.reg }

// Events returns the background-job event log: completed checkpoint
// spans, with a slow-op ring of those that took 25ms or more. Always
// non-nil.
func (d *DB) Events() *obs.EventLog { return d.events }

// indexes returns the registered secondary indexes.
func (d *DB) indexes() indexes { return *d.secondaries.Load() }

// addSecondary builds the tree of secondary index name — reattached from
// img when non-nil, else new — registers it, and names the tree's
// node-access counters in the metric registry under index=name. It
// installs a new set, so callers serialize: Open runs alone,
// CreateSecondary holds cpMu.
func (d *DB) addSecondary(name string, extract SecondaryExtract, img *core.TreeImage) error {
	old := d.indexes()
	if old.named(name) != nil {
		return fmt.Errorf("db: secondary index %q already exists", name)
	}
	var tree *core.Tree
	var err error
	if img != nil {
		tree, err = core.FromImage(d.pool, d.worm, *img)
	} else {
		tree, err = core.New(d.pool, d.worm, secondary.TreeConfig(core.Config{Policy: d.policy}))
	}
	if err != nil {
		return fmt.Errorf("db: secondary %q: %w", name, err)
	}
	tree.RegisterMetrics(d.reg, obs.Label{Key: "index", Value: name})
	next := append(slices.Clone(old), &secondaryIndex{shard: &shard{tree: tree}, name: name, extract: extract})
	d.secondaries.Store(&next)
	return nil
}

// CreateSecondary registers a secondary index maintained from commit time
// onward. It must be called before any data is written. On a durable
// database the registration is sealed into a fresh checkpoint
// immediately, so reopening the directory always knows the index exists
// (and demands its extractor via Config.Secondaries).
func (d *DB) CreateSecondary(name string, extract SecondaryExtract) error {
	if d.store.stats().Inserts > 0 {
		return fmt.Errorf("db: secondary index %q must be created before any writes", name)
	}
	d.cpMu.Lock()
	err := d.addSecondary(name, extract, nil)
	if err == nil {
		d.tm.SetIndexes(d.indexes())
	}
	d.cpMu.Unlock()
	if err != nil {
		return err
	}
	if d.wal != nil {
		if err := d.Checkpoint(); err != nil {
			return fmt.Errorf("db: sealing secondary index %q: %w", name, err)
		}
	}
	return nil
}

// Begin starts an updating transaction.
func (d *DB) Begin() *txn.Txn { return d.tm.Begin() }

// Update runs fn in a transaction, committing on success.
func (d *DB) Update(fn func(*txn.Txn) error) error { return d.tm.Update(fn) }

// ReadOnly starts a read-only transaction at the current time. It takes
// no logical locks; see the package documentation.
func (d *DB) ReadOnly() *txn.ReadTxn { return d.tm.ReadOnly() }

// ReadAt starts a read-only transaction at a past time.
func (d *DB) ReadAt(at record.Timestamp) *txn.ReadTxn { return d.tm.ReadAt(at) }

// Get returns the most recent committed version of key k.
func (d *DB) Get(k record.Key) (record.Version, bool, error) {
	return d.tm.ReadOnly().Get(k)
}

// GetAsOf returns the version of key k valid at time at.
func (d *DB) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	return d.tm.ReadAt(at).Get(k)
}

// ScanOptions configures a streaming read: Limit, Reverse, a pagination
// resume key (After), a per-scan snapshot time (At), or a temporal
// window (From/To). See txn.ScanOptions.
type ScanOptions = txn.ScanOptions

// Cursor is a lazy streaming read over the database. See txn.Cursor for
// the exact latch contract (none held between Next calls).
type Cursor = txn.Cursor

// Cursor opens a streaming read over keys in [low, high) at the current
// time (or as directed by opts: a snapshot at At, or the versions valid
// in the window [From, To)), through a read-only transaction that takes
// no logical locks.
func (d *DB) Cursor(low record.Key, high record.Bound, opts ScanOptions) *Cursor {
	return d.ReadOnly().Cursor(low, high, opts)
}

// Range returns a Go iterator over the versions Cursor would yield; a
// non-nil error is yielded as the final pair.
func (d *DB) Range(low record.Key, high record.Bound, opts ScanOptions) iter.Seq2[record.Version, error] {
	return d.ReadOnly().Range(low, high, opts)
}

// History returns every committed version of key k, oldest first.
func (d *DB) History(k record.Key) ([]record.Version, error) {
	return d.tm.History(k)
}

// Now returns the last commit timestamp.
func (d *DB) Now() record.Timestamp { return d.tm.Now() }

// LookupSecondary returns the primary keys carrying the secondary key at
// time at, using only the secondary index.
func (d *DB) LookupSecondary(name string, skey record.Key, at record.Timestamp) ([]record.Key, error) {
	s := d.indexes().named(name)
	if s == nil {
		return nil, fmt.Errorf("db: no secondary index %q", name)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return secondary.LookupAsOf(s.tree, skey, at)
}

// DeviceStats is the two-tier storage accounting of the paper's cost
// function CS = SpaceM·CM + SpaceO·CO, derived from the device counters
// for both the simulated and the file-backed (paged) devices.
type DeviceStats struct {
	// Paged reports whether the devices are disk files (Config.Dir)
	// rather than in-memory simulations.
	Paged bool
	// SpaceM is the magnetic space consumed in bytes (pages in use ×
	// page size) — the erasable current database plus index.
	SpaceM uint64
	// SpaceO is the optical capacity consumed in bytes (sectors burned
	// × sector size).
	SpaceO uint64
	// PayloadBytes of SpaceO hold live data; WastedBytes is the burned
	// remainder: partial sectors plus DeadBytes. DeadBytes is the
	// payload of runs nothing references — orphaned post-crash burns —
	// which the raw device counters report as payload but which no read
	// path can reach, so here it counts as waste. Like every burned
	// sector on write-once media it is permanent: reported, never
	// reclaimed.
	PayloadBytes uint64
	WastedBytes  uint64
	DeadBytes    uint64
	// Utilization is PayloadBytes / SpaceO (1 when nothing is burned).
	Utilization float64
	// DirtyPages is the current size of the buffer pool's dirty-page
	// table — the pages the next checkpoint will flush. Always 0 in
	// memory (the pool writes through).
	DirtyPages int
}

// Stats aggregates the accounting of every component.
type Stats struct {
	// Tree sums the structural counters over all shard trees.
	Tree     core.Stats
	Txn      txn.Stats
	Magnetic storage.MagneticStats
	WORM     storage.WORMStats
	Buffer   buffer.Stats
	// Device condenses Magnetic/WORM/Buffer into the paper's space
	// accounting: SpaceM, SpaceO, burned vs. payload, and the
	// dirty-page count the next checkpoint will flush.
	Device DeviceStats
	// WAL is the write-ahead log accounting (zero for in-memory
	// databases). Txn.Committed / WAL.Syncs is the group-commit fsync
	// amortization.
	WAL wal.Stats
	// Migrator is the time-split migration accounting: the shard latch
	// time spent splitting, inline WORM burns included.
	Migrator MigratorStats
	// Checkpoint is the checkpoint pause accounting: how long, in
	// total and at most per checkpoint, commit posting was quiesced for
	// boundary captures.
	Checkpoint CheckpointStats
	// Secondaries maps index name to its tree stats.
	Secondaries map[string]core.Stats
}

// Stats returns a snapshot of all counters.
func (d *DB) Stats() Stats {
	st := Stats{
		Tree:        d.store.stats(),
		Txn:         d.tm.Stats(),
		Magnetic:    d.mag.Stats(),
		WORM:        d.worm.Stats(),
		Secondaries: make(map[string]core.Stats),
	}
	if d.wal != nil {
		st.WAL = d.wal.Stats()
	}
	st.Buffer = d.pool.Stats()
	st.Migrator.SplitLatchNanos = d.store.splitLatchNanos()
	st.Checkpoint = CheckpointStats{
		Checkpoints:   d.cpPause.Count(),
		PauseNanos:    uint64(d.cpPause.Sum()),
		MaxPauseNanos: d.cpPause.MaxMicros() * uint64(time.Microsecond),
	}
	// Reclassify dead payload (runs nothing references) as waste: the
	// device counters cannot know a burned run became unreachable, the
	// engine can — reopen orphans feed d.deadBytes.
	dead := d.deadBytes.Load()
	worm := st.WORM
	if dead > worm.PayloadBytes {
		dead = worm.PayloadBytes
	}
	worm.PayloadBytes -= dead
	worm.WastedBytes += dead
	st.Device = DeviceStats{
		Paged:        d.pf != nil,
		SpaceM:       st.Magnetic.BytesInUse(d.mag.PageSize()),
		SpaceO:       worm.BytesBurned(d.worm.SectorSize()),
		PayloadBytes: worm.PayloadBytes,
		WastedBytes:  worm.WastedBytes,
		DeadBytes:    dead,
		Utilization:  worm.Utilization(d.worm.SectorSize()),
		DirtyPages:   st.Buffer.DirtyPages,
	}
	for _, s := range d.indexes() {
		s.mu.RLock()
		st.Secondaries[s.name] = s.tree.Stats()
		s.mu.RUnlock()
	}
	return st
}

// WALBacklogBytes is Stats().WAL.BacklogBytes without the snapshot: it
// takes no latch, so an admission check can read it on every write.
// Always 0 in memory.
func (d *DB) WALBacklogBytes() uint64 {
	if d.wal == nil {
		return 0
	}
	return d.wal.BacklogBytes()
}

// Shards returns the number of key-range partitions.
func (d *DB) Shards() int { return len(d.store.shards) }

// WithShardTree runs fn with shard i's TSB-tree while write-holding that
// shard's latch, excluding every concurrent reader and writer of the
// shard for the duration of fn: the safe accessor for dump tools,
// invariant checks, and recovery surgery. fn must not retain the tree
// past its return.
func (d *DB) WithShardTree(i int, fn func(*core.Tree) error) error {
	if i < 0 || i >= len(d.store.shards) {
		return fmt.Errorf("db: shard %d outside [0,%d)", i, len(d.store.shards))
	}
	sh := d.store.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return fn(sh.tree)
}

// Devices exposes the storage devices for experiment accounting: the
// simulated disks of an in-memory database, or the file-backed page and
// burn stores of a durable one.
func (d *DB) Devices() (storage.PageDevice, storage.WORMDevice) { return d.mag, d.worm }

// CheckInvariants verifies every shard tree (including that each key
// routes to the shard holding it) and every secondary tree.
func (d *DB) CheckInvariants() error {
	if err := d.store.checkInvariants(); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	for _, s := range d.indexes() {
		s.mu.RLock()
		err := s.tree.CheckInvariants()
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("secondary %q: %w", s.name, err)
		}
	}
	return nil
}
