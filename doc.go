// Package repro is a from-scratch Go reproduction of David Lomet & Betty
// Salzberg, "Access Methods for Multiversion Data", SIGMOD 1989 — the
// Time-Split B-tree (TSB-tree).
//
// docs/ARCHITECTURE.md is the orientation document: the layer map, the
// latch hierarchy, the durability contract, inline node-at-a-time
// migration, the maintenance economy (the background checkpoint loop
// and its one-boundary capture), and the
// statically enforced invariants: internal/lint is an analyzer suite,
// run by its own test over the whole module, that checks the latch
// hierarchy, the no-I/O-under-a-data-latch rule, release-on-every-path,
// sync-before-rename, and the sticky-error discipline against //tsb:
// directives in the source — see ARCHITECTURE.md ("Statically enforced
// invariants") for the rules and their escape hatches.
//
// The system lives in internal/, in two groups. The engine:
//
//   - internal/core: the TSB-tree itself (the paper's contribution);
//   - internal/storage: simulated magnetic and write-once devices (and
//     the device contracts both backends satisfy);
//   - internal/pagestore: the file-backed devices of a durable
//     database — a CRC-guarded mutable page file and an append-only
//     burn file with torn-tail detection, both overwritten in place
//     only behind the one rollback journal;
//   - internal/buffer, internal/record: substrates (the buffer pool
//     doubles as a durable database's dirty-page table; the record
//     package defines the shard-boundary key codec and the one
//     length|CRC|payload frame codec under the WAL, the checkpoint,
//     the journals and the wire);
//   - internal/txn, internal/secondary, internal/db: the §4/§3.6
//     transaction and secondary-index layers and the engine facade (a
//     secondary-index entry is a logged version of the transaction that
//     causes it);
//   - internal/query: the temporal query engine — §2.5's query classes
//     as composable streaming operators (filter with key-range
//     pushdown, project, merge join, secondary-index join, group-by,
//     limit) over snapshot/window/history/diff sources, compiled
//     against a snapshot and run serially or one-cursor-per-shard with
//     an ordered merge (db.Query/db.QueryAt embedded, OpOpenQuery/
//     OpQueryFetch over the wire; see the "Temporal query engine"
//     section of docs/ARCHITECTURE.md for the operator contract, the
//     pushdown rules, and the one-latch invariant);
//   - internal/wal: the durability subsystem — a CRC-framed,
//     fsync-batched write-ahead log of commit records plus the
//     metadata-only checkpoint codec;
//   - internal/obs: the observability substrate — atomic counters,
//     gauges, and lock-free latency histograms behind a registry with
//     Prometheus-text and JSON exposition, plus ring-buffer event and
//     slow-op logs tracing background jobs; tsbserve's -metrics-addr
//     serves the live surface, and every layer above registers its
//     instruments into one registry (see the "Observability" section
//     of docs/ARCHITECTURE.md for the metric scheme);
//   - internal/server: the network service layer — a pipelined binary
//     protocol over TCP (server/wire), session read snapshots, leased
//     server-side cursors, per-tenant key-prefix namespaces, and
//     watermark-based admission shedding — with the Go client in
//     server/client and the daemon in cmd/tsbserve (see the "Service
//     layer" section of docs/ARCHITECTURE.md).
//
// The evaluation (experiments E1-E9, the figures, the ablations) — no
// engine package imports these:
//
//   - internal/wobt: Easton's Write-Once B-tree, the §2 baseline;
//   - internal/bplus: a single-version B+-tree comparator;
//   - internal/workload: the update-vs-insert workload generator;
//   - internal/experiments: the paper's measurement plan — one workload
//     driver over the three structures, the SpaceReport measures
//     (SpaceM, SpaceO, redundancy, the §3.2 cost function), and the
//     E1-E9 tables cmd/tsbench prints.
//
// The engine is concurrent and sharded: db.Config.Shards partitions the
// key space across N independent TSB-trees (key-range sharding, so range
// queries still merge in key order), each behind a reader/writer latch,
// with a shared wait-free commit clock and no-wait write locks that are
// the pending versions themselves (§4) — see the internal/db package
// documentation for the exact guarantees. Shards: 1 (the default)
// reproduces the paper's single-tree system; higher counts scale
// throughput with available cores.
//
// The engine is durable when opened with db.Config.Dir, and the
// directory is the database: the two storage devices are disk files in
// it (internal/pagestore) — the paper's magnetic/WORM hierarchy made
// real — beside a write-ahead log and a small checkpoint. Committed =
// logged + fsynced — a commit is acknowledged only once its redo record
// (the stamped write set) is durable in the write-ahead log, and group
// commit coalesces concurrently-arriving committers into one log append,
// one fsync, and one clock advance. A checkpoint flushes the dirty pages
// through a rollback journal — O(dirty pages), not O(database) —
// installs metadata only, and truncates the log without stopping
// writers. Crash recovery reattaches the device files at the last
// checkpoint (torn flushes restored from the journal, torn WORM tails
// clipped) and replays the log tail, stopping at the first torn frame.
// With Dir empty the same engine runs on simulated in-memory devices.
// There is one on-disk format and one open path. See the internal/db
// package documentation for the exact durability contract, and
// `tsbdump -waldir DIR` / `tsbdump -pagedir DIR` to inspect a durable
// directory.
//
// Historical nodes migrate inline, node at a time, as the paper's §3.4
// specifies: a time split burns its historical half to the write-once
// device as part of the split, under the shard's write latch, so a
// reader sees the tree before or after the split and no version is ever
// unreachable. Stats().Migrator.SplitLatchNanos reports the latch time
// splits take, burns included.
//
// Open and Close each end at a checkpoint, and in between the log append
// that crosses db.Config.CheckpointBytes triggers a background one, run
// by a per-DB maintenance loop. Write-once means write-once: burns a
// crash orphans stay burned, reported as Stats().Device.DeadBytes and
// lower WORM utilization, never reclaimed; a clean restart orphans
// none. A checkpoint pre-flushes dirty pages with writers running, then
// captures every tree, the dirty remainder and the allocators at one
// WAL boundary in one short pause of commit posting, so recovery replays
// every record past that one LSN into every tree; see the "maintenance
// economy" section of docs/ARCHITECTURE.md.
//
// Range reads stream: db.Cursor / txn.ReadTxn.Cursor (and the iter.Seq2
// form, Range) yield a snapshot lazily, page by page, with
// ScanOptions{Limit, Reverse, After, At, From, To} — pagination,
// descending order, per-scan time travel, and temporal windows. A cursor
// holds no latch between Next calls; each Next read-latches at most one
// shard for a single leaf-page fetch (snapshot and From/To window
// cursors alike), so a Limit=1 read over a 100k-version snapshot costs
// O(tree height) page reads. That is the one range-read stack: a
// snapshot scan (txn.ReadTxn.Scan) is a cursor drained, composed
// queries (db.Query, internal/query) stack streaming operators on those
// cursors and inherit the contract unchanged, a temporal diff is the
// query.Diff source, and every scan over the wire is one (a leased
// operator on the server). Secondary reads are one lookup
// (db.LookupSecondary, §3.6's index-only read), followed, to fetch the
// records, by a point read of each primary key at the same time.
// Beneath them a tree has two read primitives: the edge descent of a
// scan's first page, and the window walk core.Tree.ScanRange, of which
// ScanAsOf, History and Diff are windows. Each later page is the first
// page's core.Page.Resume, a fresh edge descent. Every read and write
// takes index nodes from the tree's one shared level of decoded index
// nodes, valid while the tree has written no index node since, so a
// point read or a resumed page decodes about one leaf.
//
// The repo's one benchmark is bench/, a module of its own (bash
// bench/run.sh --workload NAME --seed N; see bench/README.md): four
// named workloads with end-to-end and per-layer metrics. The binaries
// under cmd/ print the paper's experiment tables E1-E9 (tsbench),
// replay the paper's figures (figures), dump tree structure and inspect
// durable directories (tsbdump), and serve the engine over the network
// with graceful SIGTERM drain (tsbserve); ablation_bench_test.go holds
// the four design-choice ablations.
package repro
