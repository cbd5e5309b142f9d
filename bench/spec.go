package main

import (
	"encoding/json"
	"runtime"
)

// This file is the benchmark's vocabulary: the workload names, every
// metric name with its unit, direction and regression bound, and the
// sizes. BENCHMARK.json at the repository root is generated from these
// tables (`bench -manifest`) and a test keeps the two identical.

// frozenScale is the one global scale factor. The issue's sizes (100 k
// keys, 270 k versions, 20 k tail commits) load in 13-35 s on the 2-core
// reference box; three set-ups per run must fit a ~10 s budget so that
// 92 driver runs end inside 3420 s. It was lowered once, to 0.1, and is
// frozen: changing it invalidates every recorded baseline.
const frozenScale = 0.1

// Base sizes at scale 1.0 (the issue's figures).
const (
	baseOLTPKeys       = 100_000
	baseTemporalKeys   = 30_000
	temporalRounds     = 8  // hot80 update rounds over the temporal key set
	temporalTxnKeys    = 16 // keys per set-up update transaction
	baseDurableKeys    = 100_000
	baseTailCommits    = 20_000
	baseDurableBufPgs  = 512 // 8 KiB pages: 4 MiB against ~19 MB of pages
	baseCheckpointByte = 4 << 20
	loadTxnKeys        = 64 // keys per set-up load transaction
	valueLen           = 100
	scanLimit          = 200
	openLoopRate       = 4000 // req/s, served phase B
	setupRepeats       = 3    // set-ups per run; setup_s is their median
)

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// End-to-end metrics. The driver contract requires every workload to
// report every one of them and none to be zero, so the set is the part
// of the issue's list that all four workloads share. point_* is the
// mix's point read (Get; GetAsOf on temporal-read); heavy_* is its
// expensive op (single-key update transaction; Put RPC on served; the
// 200-row as-of scan on temporal-read). The issue's per-op-type names
// live on as ungated op.* metrics below, failed_ops_ratio is the result
// line's failed/attempted, recovery_s is recovery.open_s, and peak_rss_mb
// is go.peak_rss_mb (rss_mb, the phase's median resident set, is the
// steadier gate). The reference box drifts between quiet and noisy
// minutes by up to 20 %, so every timing carries the widest bound the
// contract allows; README.md has the spreads behind each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"point_p50_us", "us", "lower", 0.25},
	{"point_p99_us", "us", "lower", 0.25},
	{"heavy_p50_us", "us", "lower", 0.25},
	{"heavy_p99_us", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
	{"space_amp", "x", "lower", 0.03},
}

// Per-layer metrics (layer = module), all read from outside the engine.
var perLayer = []metricDef{
	// op types (the issue's end-to-end names, per workload where the op exists)
	{"op.get_p50_us", "us", "lower", 0},
	{"op.get_p99_us", "us", "lower", 0},
	{"op.put_p50_us", "us", "lower", 0},
	{"op.put_p99_us", "us", "lower", 0},
	{"op.asof_p50_us", "us", "lower", 0},
	{"op.asof_p99_us", "us", "lower", 0},
	{"op.history_p50_us", "us", "lower", 0},
	{"op.scan_rows_per_s", "1/s", "higher", 0},
	{"op.failed_ratio", "ratio", "lower", 0},
	// core
	{"core.node_visits_per_op", "count", "lower", 0},
	{"core.self_us_per_op", "us", "lower", 0},
	{"core.leaf_time_splits", "count", "lower", 0},
	{"core.leaf_key_splits", "count", "lower", 0},
	{"core.index_splits", "count", "lower", 0},
	{"core.redundant_versions", "count", "lower", 0},
	{"core.height", "count", "lower", 0},
	// go runtime
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.bytes_per_op", "B", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.num_gc", "count", "lower", 0},
	{"go.peak_rss_mb", "MB", "lower", 0},
	// buffer
	{"buffer.hit_ratio", "ratio", "higher", 0},
	{"buffer.evictions", "count", "lower", 0},
	{"buffer.overflows", "count", "lower", 0},
	{"buffer.dirty_pages_max", "count", "lower", 0},
	{"buffer.self_us_per_op", "us", "lower", 0},
	// storage / pagestore
	{"device.mag_reads_per_op", "count", "lower", 0},
	{"device.mag_writes_per_op", "count", "lower", 0},
	{"device.worm_reads_per_op", "count", "lower", 0},
	{"device.worm_sectors_burned", "count", "lower", 0},
	{"device.read_s", "s", "lower", 0},
	{"device.write_s", "s", "lower", 0},
	{"device.sync_s", "s", "lower", 0},
	{"device.self_us_per_op", "us", "lower", 0},
	// db shard store and maintenance
	{"db.share_us_per_op", "us", "lower", 0},
	{"shard.latch_wait_s", "s", "lower", 0},
	{"shard.latch_hold_s", "s", "lower", 0},
	{"shard.split_latch_s", "s", "lower", 0},
	{"migrator.migrated", "count", "higher", 0},
	{"migrator.abandoned", "count", "lower", 0},
	{"migrator.fallbacks", "count", "lower", 0},
	{"migrator.burn_s", "s", "lower", 0},
	{"ckpt.count", "count", "higher", 0},
	{"ckpt.s", "s", "lower", 0},
	{"ckpt.pause_max_ms", "ms", "lower", 0},
	{"ckpt.pages_flushed", "count", "lower", 0},
	// txn
	{"txn.commits", "count", "higher", 0},
	{"txn.conflicts", "count", "lower", 0},
	{"txn.commits_per_batch", "count", "higher", 0},
	{"txn.commit_s", "s", "lower", 0},
	{"txn.self_us_per_op", "us", "lower", 0},
	// wal
	{"wal.syncs_per_commit", "count", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.fsync_s", "s", "lower", 0},
	{"wal.self_us_per_put", "us", "lower", 0},
	// server / wire / client
	{"server.op_s", "s", "lower", 0},
	{"server.ops", "count", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"wire.share_us_per_op", "us", "lower", 0},
	{"client.open_p50_us", "us", "lower", 0},
	{"client.open_p99_us", "us", "lower", 0},
	{"client.open_rate_achieved", "1/s", "higher", 0},
	{"client.gen_lag_max_ms", "ms", "lower", 0},
	// the paper's quantities
	{"space.spacem_bytes", "B", "lower", 0},
	{"space.spaceo_bytes", "B", "lower", 0},
	{"space.worm_utilization", "ratio", "higher", 0},
	{"space.dead_bytes", "B", "lower", 0},
	{"space.versions_migrated", "count", "higher", 0},
	// recovery
	{"recovery.open_s", "s", "lower", 0},
	{"recovery.frames_replayed", "count", "lower", 0},
	{"recovery.wal_tail_bytes", "B", "lower", 0},
	// instrument checks
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"reconcile.put_unexplained_ratio", "ratio", "lower", 0},
}

const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range specs {
		m.Workloads = append(m.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(out, '\n')
}

// numClients is the closed-loop client count: callers of an embedded
// library, and of a sync RPC, each wait for their reply.
func numClients() int {
	return min(runtime.NumCPU(), 4)
}

func scaled(base int, scale float64) int {
	return max(int(float64(base)*scale), 16)
}
