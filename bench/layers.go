package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
)

// Per-layer numbers are taken from outside the engine: db.Stats(), the
// obs registry through its Prometheus exposition, and runtime.MemStats,
// each read before and after the measured phase.

type snapshot struct {
	st   db.Stats
	expo []obs.Sample
	mem  runtime.MemStats
}

func takeSnapshot(d *db.DB) (snapshot, error) {
	var s snapshot
	var buf bytes.Buffer
	if err := d.Metrics().WritePrometheus(&buf); err != nil {
		return s, err
	}
	var err error
	if s.expo, err = obs.ParseExposition(buf.Bytes()); err != nil {
		return s, err
	}
	s.st = d.Stats()
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// series sums every sample of the named metric whose label block
// contains all of the given fragments.
func (s snapshot) series(name string, labels ...string) float64 {
	var sum float64
next:
	for _, smp := range s.expo {
		if smp.Name != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(smp.Series, l) {
				continue next
			}
		}
		sum += smp.Value
	}
	return sum
}

// latchSampleRate undoes the engine's 1-in-8 sampling of latch timings.
const latchSampleRate = 8

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the counter-based per-layer metrics from the
// snapshots around a phase. Ladder, recovery and open-loop metrics are
// added by their own code.
func layerMetrics(a, b snapshot, p phase, dirtyMax int) map[string]float64 {
	ops := float64(p.ops())
	d := func(name string, labels ...string) float64 {
		return b.series(name, labels...) - a.series(name, labels...)
	}
	u := func(after, before uint64) float64 { return float64(after - before) }
	ta, tb := a.st.Tree, b.st.Tree
	commits := u(b.st.Txn.Committed, a.st.Txn.Committed)
	reads := u(b.st.Buffer.Hits, a.st.Buffer.Hits) + u(b.st.Buffer.Misses, a.st.Buffer.Misses)
	var putSeconds float64
	for _, k := range []opKind{opUpdate, opInsert} {
		for _, ns := range p.lat[k].ns {
			putSeconds += float64(ns) / 1e9
		}
	}
	m := map[string]float64{
		"op.get_p50_us":      p.lat[opGet].p50us(),
		"op.get_p99_us":      p.lat[opGet].p99us(),
		"op.put_p50_us":      p.lat[opUpdate].p50us(),
		"op.put_p99_us":      p.lat[opUpdate].p99us(),
		"op.asof_p50_us":     p.lat[opAsOf].p50us(),
		"op.asof_p99_us":     p.lat[opAsOf].p99us(),
		"op.history_p50_us":  p.lat[opHistory].p50us(),
		"op.scan_rows_per_s": scanRowsPerSecond(p),
		"op.failed_ratio":    ratio(float64(p.failed), float64(p.attempted)),

		"core.node_visits_per_op": ratio(reads, ops),
		"core.leaf_time_splits":   u(tb.LeafTimeSplits, ta.LeafTimeSplits),
		"core.leaf_key_splits":    u(tb.LeafKeySplits, ta.LeafKeySplits),
		"core.index_splits":       u(tb.IndexTimeSplits+tb.IndexKeySplits, ta.IndexTimeSplits+ta.IndexKeySplits),
		"core.redundant_versions": u(tb.RedundantVersions, ta.RedundantVersions),
		"core.height":             float64(tb.Height),

		"go.allocs_per_op": ratio(u(b.mem.Mallocs, a.mem.Mallocs), ops),
		"go.bytes_per_op":  ratio(u(b.mem.TotalAlloc, a.mem.TotalAlloc), ops),
		"go.gc_pause_ms":   u(b.mem.PauseTotalNs, a.mem.PauseTotalNs) / 1e6,
		"go.num_gc":        float64(b.mem.NumGC - a.mem.NumGC),
		"go.peak_rss_mb":   procStatusMB("VmHWM:"),

		"buffer.hit_ratio":       ratio(u(b.st.Buffer.Hits, a.st.Buffer.Hits), reads),
		"buffer.evictions":       u(b.st.Buffer.Evictions, a.st.Buffer.Evictions),
		"buffer.overflows":       u(b.st.Buffer.Overflows, a.st.Buffer.Overflows),
		"buffer.dirty_pages_max": float64(dirtyMax),

		"device.mag_reads_per_op":    ratio(u(b.st.Magnetic.Reads, a.st.Magnetic.Reads), ops),
		"device.mag_writes_per_op":   ratio(u(b.st.Magnetic.Writes, a.st.Magnetic.Writes), ops),
		"device.worm_reads_per_op":   ratio(u(b.st.WORM.SectorReads, a.st.WORM.SectorReads), ops),
		"device.worm_sectors_burned": u(b.st.WORM.SectorsBurned, a.st.WORM.SectorsBurned),
		"device.read_s":              d("tsb_device_read_seconds_sum"),
		"device.write_s":             d("tsb_device_write_seconds_sum") + d("tsb_device_burn_seconds_sum"),
		"device.sync_s":              d("tsb_device_sync_seconds_sum"),

		"shard.latch_wait_s":  latchSampleRate * d("tsb_latch_wait_seconds_sum"),
		"shard.latch_hold_s":  latchSampleRate * d("tsb_latch_hold_seconds_sum"),
		"shard.split_latch_s": u(b.st.Migrator.SplitLatchNanos, a.st.Migrator.SplitLatchNanos) / 1e9,
		"migrator.migrated":   u(b.st.Migrator.Migrated, a.st.Migrator.Migrated),
		"migrator.abandoned":  u(b.st.Migrator.Abandoned, a.st.Migrator.Abandoned),
		"migrator.fallbacks":  u(b.st.Migrator.InlineFallbacks, a.st.Migrator.InlineFallbacks),
		"migrator.burn_s":     d("tsb_migrator_phase_seconds_sum", `phase="burn"`),
		"ckpt.count":          u(b.st.Checkpoint.Checkpoints, a.st.Checkpoint.Checkpoints),
		"ckpt.s":              d("tsb_checkpoint_seconds_sum"),
		"ckpt.pause_max_ms":   float64(b.st.Checkpoint.MaxPauseNanos) / 1e6,
		"ckpt.pages_flushed":  u(b.st.Buffer.FlushedPages, a.st.Buffer.FlushedPages),

		"txn.commits":           commits,
		"txn.conflicts":         u(b.st.Txn.Conflicts, a.st.Txn.Conflicts),
		"txn.commits_per_batch": ratio(commits, u(b.st.Txn.CommitBatches, a.st.Txn.CommitBatches)),
		"txn.commit_s":          d("tsb_commit_latency_seconds_sum"),

		"wal.syncs_per_commit":    ratio(u(b.st.WAL.Syncs, a.st.WAL.Syncs), commits),
		"wal.bytes_per_user_byte": ratio(u(b.st.WAL.Bytes, a.st.WAL.Bytes), float64(p.userBytes)),
		"wal.fsync_s":             d("tsb_wal_fsync_seconds_sum"),

		"server.op_s": d("tsb_server_op_seconds_sum", `op="all"`),
		"server.ops":  d("tsb_server_ops_total"),
		"server.shed": d("tsb_server_shed_total"),

		"space.spacem_bytes":      float64(b.st.Device.SpaceM),
		"space.spaceo_bytes":      float64(b.st.Device.SpaceO),
		"space.worm_utilization":  b.st.Device.Utilization,
		"space.dead_bytes":        float64(b.st.Device.DeadBytes),
		"space.versions_migrated": float64(tb.VersionsMigrated),
	}
	// ROADMAP 1(b)'s second witness: the share of client-observed put
	// time the engine's own commit histogram does not explain. Printed,
	// never hidden.
	if putSeconds > 0 {
		m["reconcile.put_unexplained_ratio"] = 1 - m["txn.commit_s"]/putSeconds
	}
	return m
}

func scanRowsPerSecond(p phase) float64 {
	var ns float64
	for _, v := range p.lat[opScan].ns {
		ns += float64(v)
	}
	return ratio(float64(p.scanRows), ns/1e9)
}

// phaseSampler polls, ten times a second while a phase runs, the
// process's resident set and (traced runs only: Stats takes latches)
// the pool's dirty-page count.
type phaseSampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	rss      []float64
	dirtyMax int
}

func startPhaseSampler(d *db.DB, dirty bool) *phaseSampler {
	s := &phaseSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.rss = append(s.rss, procStatusMB("VmRSS:"))
				if dirty {
					s.dirtyMax = max(s.dirtyMax, d.Stats().Buffer.DirtyPages)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median resident set in MB
// and the largest dirty-page count seen.
func (s *phaseSampler) finish() (rssMB float64, dirtyMax int) {
	close(s.stop)
	s.wg.Wait()
	return median(s.rss), s.dirtyMax
}

// procStatusMB reads one kB field of /proc/self/status, in MB: "VmRSS:"
// is the resident set now, "VmHWM:" its high-water mark.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
