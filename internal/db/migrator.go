package db

// The background time-split migrator: one worker goroutine per shard
// turning the core layer's deferred-split tickets (core.PendingSplit)
// into completed migrations. Each ticket is processed in three latch
// regimes — capture under the shard's read latch, burn with NO latch
// held (the slow write-once append, the whole reason this subsystem
// exists), swap under a short write latch — so the inserting goroutine
// never pays for WORM I/O and the write latch is held only for the
// in-memory swap.
//
// The consistency contract, precisely:
//
//   - No version is ever unreachable. The swap installs the historical
//     node and rewrites the current node through the same splitNode
//     machinery an inline split uses, atomically under the shard's write
//     latch; a reader (which holds the read latch for the duration of
//     any node access) sees the pre-swap or the post-swap node, never a
//     torn intermediate.
//   - Concurrent inserts into a queued leaf are never lost: they land in
//     the leaf under the write latch and partition into the current half
//     at swap time (commit timestamps are always >= the chosen split
//     time; see internal/core/migrate.go for why the captured historical
//     half is immutable).
//   - A lost race (the leaf was split inline after all — physical page
//     exhaustion forces that) abandons the burned node as unreferenced
//     write-once waste, counted in MigratorStats.Abandoned, exactly as a
//     torn migration on real WORM media would be.
//   - Checkpoints fence the migrator (pause: in-flight tickets complete,
//     workers idle) around the boundary capture, so a page capture
//     never interleaves with a swap or a boundary-straddling burn. Queued-but-unprocessed marks are NOT part of durable state:
//     after a crash they vanish, the leaves are simply still unsplit,
//     and future inserts re-queue them.
//   - Close stops the workers after their in-flight ticket (if any)
//     completes; remaining queued marks are dropped. A marked-but-
//     unsplit leaf is a valid TSB-tree state, so nothing is owed.
//     DrainMigrations forces the queue empty first when a test or an
//     unload wants every historical node on the write-once device.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// MigratorStats is the accounting of the background time-split migrator
// (Stats().Migrator). SplitLatchNanos is reported for inline-mode
// databases too: it is the latch-hold measurement the migrator shrinks.
type MigratorStats struct {
	// Enabled reports whether Config.BackgroundMigration is on.
	Enabled bool
	// Marked counts tickets enqueued: leaves that deferred a time split.
	Marked uint64
	// Migrated counts background splits applied (historical nodes
	// burned off-latch and swapped in); VersionsMigrated and BytesBurned
	// are their payload.
	Migrated         uint64
	VersionsMigrated uint64
	BytesBurned      uint64
	// Stale counts tickets dropped before burning (the leaf was split
	// some other way first): no write-once capacity was consumed.
	Stale uint64
	// Abandoned counts burns orphaned by a lost race — the leaf was
	// inline-split between capture and swap — with AbandonedBytes the
	// write-once capacity wasted.
	Abandoned      uint64
	AbandonedBytes uint64
	// InlineFallbacks counts queued leaves that were split inline after
	// all because they ran out of physical page headroom (summed from
	// the shard trees).
	InlineFallbacks uint64
	// QueueDepth and InFlight describe the backlog right now.
	QueueDepth int
	InFlight   int
	// PendingNodes is how many leaves are currently marked across all
	// shard trees (the authoritative deferred-split state).
	PendingNodes int
	// SplitLatchNanos is cumulative time spent splitting nodes under
	// shard write latches — inline splits and background swaps alike
	// (summed from the shard trees). Background mode grows it slower:
	// the WORM append and historical-node encoding run off-latch.
	SplitLatchNanos uint64
	// CaptureNanos/BurnNanos/SwapNanos break a background migration into
	// its three latch regimes: read latch, no latch, write latch.
	CaptureNanos uint64
	BurnNanos    uint64
	SwapNanos    uint64
	// Err is the sticky first capture/burn/swap failure, if any. The
	// workers keep consuming tickets past it (a failed ticket leaves a
	// marked-but-unsplit leaf — a valid tree state), but the error is
	// never dropped: DrainMigrations and Close return it too.
	Err error
}

// migrator owns the per-shard background workers. All mutable state is
// guarded by mu. Each worker sleeps on its own condition variable so an
// enqueue wakes exactly the owning shard's worker (no thundering herd);
// doneCond is broadcast whenever in-flight work completes or the pause
// gate opens, which is what pause and drain wait on.
type migrator struct {
	store *shardedStore

	mu       sync.Mutex   //tsb:latch level=7 name=migrator-queue
	conds    []*sync.Cond // one per shard worker
	doneCond *sync.Cond
	queues   [][]core.PendingSplit // per-shard FIFO of tickets
	queued   int
	inflight int
	paused   bool //tsb:latch level=2 name=migrator-fence kind=state
	stopped  bool
	err      error // sticky first capture/burn/swap failure

	marked         uint64
	migrated       uint64
	versions       uint64
	bytesBurned    uint64
	stale          uint64
	abandoned      uint64
	abandonedBytes uint64

	// capture/burn/swap point at the DB's phase histograms (which exist
	// in every mode) and log at its event log; the phase-nanos stats
	// derive from the histogram sums. Set once in startMigrator before
	// the first ticket can flow, same write-once discipline as onAbandon.
	capture, burn, swap *obs.Histogram
	log                 *obs.EventLog

	// onAbandon, when set, is told the payload bytes of every abandoned
	// burn: the DB routes them into its dead-byte account so the waste
	// shows up in Stats().Device and compaction can reclaim it. Set once
	// before the first ticket can flow (between newMigrator and wiring
	// the store), never changed.
	onAbandon func(bytes uint64)
	// burnHook, when set, runs before each ticket's burn and can fail
	// it: the fault-injection seam tests use to exercise the sticky
	// error path without a misbehaving device. Same write-once
	// discipline as onAbandon.
	burnHook func(shard int, ps core.PendingSplit) error

	wg sync.WaitGroup
}

// newMigrator starts one worker per shard.
func newMigrator(store *shardedStore) *migrator {
	m := &migrator{
		store:  store,
		queues: make([][]core.PendingSplit, len(store.shards)),
		conds:  make([]*sync.Cond, len(store.shards)),
	}
	m.doneCond = sync.NewCond(&m.mu)
	for i := range store.shards {
		m.conds[i] = sync.NewCond(&m.mu)
		m.wg.Add(1)
		go m.worker(i)
	}
	return m
}

// wakeAll wakes every worker plus the pause/drain waiters; used when a
// global condition (paused, stopped) changes. Callers hold mu.
func (m *migrator) wakeAll() {
	for _, c := range m.conds {
		c.Broadcast()
	}
	m.doneCond.Broadcast()
}

// enqueue adds freshly-taken tickets for shard i and wakes its worker.
func (m *migrator) enqueue(i int, tickets []core.PendingSplit) {
	if m == nil || len(tickets) == 0 {
		return
	}
	m.mu.Lock()
	m.queues[i] = append(m.queues[i], tickets...)
	m.queued += len(tickets)
	m.marked += uint64(len(tickets))
	m.conds[i].Signal()
	m.mu.Unlock()
}

// worker is shard i's migration loop: pop a ticket, process it, repeat.
// It idles while paused and exits when stopped.
func (m *migrator) worker(i int) {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.stopped && (m.paused || len(m.queues[i]) == 0) {
			m.conds[i].Wait()
		}
		if m.stopped {
			m.mu.Unlock()
			return
		}
		ps := m.queues[i][0]
		m.queues[i] = m.queues[i][1:]
		m.queued--
		m.inflight++
		m.mu.Unlock()

		err := m.process(i, ps)

		m.mu.Lock()
		m.inflight--
		if err != nil && m.err == nil {
			m.err = err
		}
		m.doneCond.Broadcast()
		m.mu.Unlock()
	}
}

// process runs one ticket through capture (read latch) → burn (no
// latch) → swap (write latch). Each phase feeds its histogram and the
// whole ticket is one span in the event log.
func (m *migrator) process(i int, ps core.PendingSplit) error {
	sh := m.store.shards[i]
	sp := m.log.StartSpan("migrate", nil)

	start := time.Now()
	sh.mu.RLock()
	cap, ok, err := sh.tree.CaptureSplit(ps)
	sh.mu.RUnlock()
	m.capture.Observe(time.Since(start))
	if err != nil {
		sp.End(fmt.Sprintf("shard=%d capture error: %v", i, err))
		return fmt.Errorf("db: migrator shard %d capture: %w", i, err)
	}
	if !ok {
		m.mu.Lock()
		m.stale++
		m.mu.Unlock()
		sp.End(fmt.Sprintf("shard=%d stale", i))
		return nil
	}

	start = time.Now()
	if h := m.burnHook; h != nil {
		if err := h(i, ps); err != nil {
			sp.End(fmt.Sprintf("shard=%d burn error: %v", i, err))
			return fmt.Errorf("db: migrator shard %d burn: %w", i, err)
		}
	}
	addr, err := sh.tree.BurnCapture(cap)
	m.burn.Observe(time.Since(start))
	if err != nil {
		sp.End(fmt.Sprintf("shard=%d burn error: %v", i, err))
		return fmt.Errorf("db: migrator shard %d burn: %w", i, err)
	}

	start = time.Now()
	sh.mu.Lock()
	//tsb:allow latchio -- the documented swap: the burn itself ran latch-free above; ApplySplit only re-burns when an ancestor filled up mid-migration
	applied, err := sh.tree.ApplySplit(cap, addr)
	sh.mu.Unlock()
	m.swap.Observe(time.Since(start))
	if err != nil {
		sp.End(fmt.Sprintf("shard=%d swap error: %v", i, err))
		return fmt.Errorf("db: migrator shard %d swap: %w", i, err)
	}

	m.mu.Lock()
	if applied {
		m.migrated++
		m.versions += uint64(cap.HistVersions())
		m.bytesBurned += uint64(cap.HistBytes())
	} else {
		m.abandoned++
		m.abandonedBytes += uint64(cap.HistBytes())
		if m.onAbandon != nil {
			m.onAbandon(uint64(cap.HistBytes()))
		}
	}
	m.mu.Unlock()
	if applied {
		sp.End(fmt.Sprintf("shard=%d burned=%dB", i, cap.HistBytes()))
	} else {
		sp.End(fmt.Sprintf("shard=%d abandoned=%dB", i, cap.HistBytes()))
	}
	return nil
}

// pause fences the migrator for a checkpoint boundary: no new ticket
// starts, and pause returns only once the in-flight tickets (at most one
// per shard) have completed. Nil-safe.
//
//tsb:acquires migrator-fence
func (m *migrator) pause() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.paused = true
	for m.inflight > 0 {
		m.doneCond.Wait()
	}
	m.mu.Unlock()
}

// resume lifts the fence. Nil-safe.
//
//tsb:releases migrator-fence
func (m *migrator) resume() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.paused = false
	m.wakeAll()
	m.mu.Unlock()
}

// stop terminates the workers after their in-flight ticket completes and
// returns the sticky error, if any. Remaining queued tickets are dropped
// — a marked-but-unsplit leaf is a valid tree state. Nil-safe,
// idempotent.
func (m *migrator) stop() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	if m.stopped {
		err := m.err
		m.mu.Unlock()
		return err
	}
	m.stopped = true
	m.wakeAll()
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	err := m.err
	m.mu.Unlock()
	return err
}

// drain processes tickets on the caller's goroutine until the queue and
// the in-flight set are simultaneously empty. It respects the pause
// fence (a checkpoint boundary excludes draining too) and shares the
// pop-protocol with the workers, so a ticket is processed exactly once
// whoever gets it.
func (m *migrator) drain() error {
	if m == nil {
		return nil
	}
	for {
		m.mu.Lock()
		for !m.stopped && m.paused {
			m.doneCond.Wait()
		}
		if m.stopped {
			err := m.err
			m.mu.Unlock()
			return err
		}
		shard := -1
		var ps core.PendingSplit
		for i := range m.queues {
			if len(m.queues[i]) > 0 {
				ps = m.queues[i][0]
				m.queues[i] = m.queues[i][1:]
				m.queued--
				shard = i
				break
			}
		}
		if shard == -1 {
			if m.inflight == 0 {
				err := m.err
				m.mu.Unlock()
				return err
			}
			m.doneCond.Wait()
			m.mu.Unlock()
			continue
		}
		m.inflight++
		m.mu.Unlock()

		err := m.process(shard, ps)

		m.mu.Lock()
		m.inflight--
		if err != nil && m.err == nil {
			m.err = err
		}
		m.doneCond.Broadcast()
		m.mu.Unlock()
	}
}

// stats snapshots the migrator counters (the tree-derived fields are
// filled by DB.Stats). Nil-safe: the zero value reports a disabled
// migrator.
func (m *migrator) statsSnapshot() MigratorStats {
	if m == nil {
		return MigratorStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MigratorStats{
		Enabled:          true,
		Marked:           m.marked,
		Migrated:         m.migrated,
		VersionsMigrated: m.versions,
		BytesBurned:      m.bytesBurned,
		Stale:            m.stale,
		Abandoned:        m.abandoned,
		AbandonedBytes:   m.abandonedBytes,
		QueueDepth:       m.queued,
		InFlight:         m.inflight,
		CaptureNanos:     histNanos(m.capture),
		BurnNanos:        histNanos(m.burn),
		SwapNanos:        histNanos(m.swap),
		Err:              m.err,
	}
}

// histNanos derives a phase-nanos stat from its histogram's sum (the
// histogram keeps its sum in nanoseconds exactly).
func histNanos(h *obs.Histogram) uint64 {
	if h == nil {
		return 0
	}
	return uint64(h.Sum())
}

// DrainMigrations synchronously processes every queued background
// migration and returns when the queue is empty (as of the return; new
// tickets created by concurrent writers are drained too if they arrive
// before the queue empties). It is how an unload, a test, or an
// equivalence check forces every deferred historical node onto the
// write-once device. It returns the migrator's sticky error — the first
// capture/burn/swap failure ever seen, this drain's or an earlier
// worker's (also surfaced as Stats().Migrator.Err and by Close) — so a
// caller that needs every node durably migrated finds out
// deterministically. A no-op for databases without BackgroundMigration.
func (d *DB) DrainMigrations() error {
	return d.mig.drain()
}

// startMigrator switches the shard trees to deferred time splits and
// launches the per-shard workers. Called once, at the end of Open, after
// any recovery replay — recovery inserts split inline, deterministically.
func (d *DB) startMigrator() {
	for _, sh := range d.store.shards {
		sh.tree.SetDeferTimeSplits(true)
	}
	d.mig = newMigrator(d.store)
	// Wire the dead-byte account, phase histograms, and event log before
	// any ticket can flow (tickets only arrive once d.store.mig is set
	// below).
	d.mig.onAbandon = func(b uint64) { d.deadBytes.Add(b) }
	d.mig.capture = &d.migCapture
	d.mig.burn = &d.migBurn
	d.mig.swap = &d.migSwap
	d.mig.log = d.events
	d.store.mig = d.mig
}
