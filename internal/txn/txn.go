// Package txn provides the transaction support of §4 of the paper on top
// of the TSB-tree:
//
//   - records created by uncommitted transactions carry no timestamp, so
//     they are never written to the historical database during a time
//     split and can always be erased on abort;
//   - commit posts the transaction's commit time onto its pending
//     versions, in commit-time order (rollback-database semantics);
//   - read-only transactions are given a timestamp when initiated and read
//     versioned data without any logical record locks (§4.1): they never
//     wait for an updater, and no updater can later commit at or before
//     the reader's timestamp.
//
// An updater's write lock on a key is its pending version in the store,
// released when commit stamps or abort erases it. Locking is no-wait: a
// write of a key another transaction holds fails immediately with
// ErrLockConflict, which makes the protocol trivially deadlock-free.
//
// # Concurrency
//
// The Manager is safe for concurrent use provided its Store is (the db
// layer supplies one: a latched key-range shard router). Internally:
//
//   - the commit clock and transaction-id counter are atomics, so issuing
//     a read-only transaction's timestamp is wait-free — a reader never
//     blocks on an updater, honoring §4.1;
//   - a write lock is claimed and released by the latched Store call
//     that writes, stamps or erases the pending version;
//   - commit posting is serialized by a leadership token (group commit):
//     concurrently-arriving committers enqueue their write sets, and the
//     first to take the token posts the whole queue as one batch —
//     consecutive commit timestamps, one append+fsync of the commit log
//     (when one is attached), one clock advance. A reader that observes
//     clock value T therefore sees every version with time <= T fully
//     posted, and nothing newer is visible at its timestamp.
//
// # Group commit and durability
//
// A Manager optionally writes a redo log: SetCommitLog attaches a
// CommitLog (the wal package provides one) and from then on a
// transaction only reports Commit success after its CommitRecord — the
// stamped write set — is durably appended. Batching makes that cheap:
// the batch leader logs every queued transaction with a single
// AppendBatch call (one fsync), so under concurrency the fsync cost is
// amortized across committers (Stats.CommitBatches counts batches; the
// committed/batches ratio is the amortization factor). If the log append
// fails, no version of the batch is stamped: every member transaction is
// aborted and its pending versions erased.
//
// Uncommitted writes and reads run concurrently across transactions,
// synchronized only by the Store's own latches. A Txn or ReadTxn handle
// itself must be confined to one goroutine at a time (like database/sql's
// Tx); distinct handles may be used from distinct goroutines freely.
// ReadAt is consistent for any at <= Now(); reading "in the future" during
// concurrent commits may observe a commit mid-posting.
//
// # Streaming reads
//
// Every range read is a Cursor: ReadTxn.Cursor (and the iter.Seq2 form,
// ReadTxn.Range) yields versions lazily with pagination, reverse order,
// and early termination as first-class options (ScanOptions), pulling
// one leaf-bounded page at a time through the Store's two page methods;
// there is no other range-read path and no materializing fallback. A
// cursor holds no latch between Next calls — each page latches at most
// one shard for one leaf read — and stays consistent across the latch
// hand-offs because the versions visible at its snapshot timestamp are
// immutable. The slice-returning ReadTxn.Scan is a thin Collect wrapper
// over the cursor; diffs are the query layer's fold over a
// window cursor (query.Diff).
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/record"
)

// Store is the versioned store a Manager coordinates — the one store
// interface: point reads and writes, one key's history, and the two page
// iterators every range read streams through. A page is one latch-scoped
// leaf read, and each page after the first comes from the previous
// page's core.Page.Resume, so a Store never materializes a range or holds
// a latch across calls. A Store that latches its pages must wrap each
// page's Resume in the same latch, as the db layer's shard router does.
// It must be safe for concurrent use; the shard router satisfies it, and
// a bare *core.Tree does for single-goroutine use.
type Store interface {
	//tsb:io -- inserting can time-split and burn inline
	Insert(v record.Version) error
	CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) error
	AbortKey(k record.Key, txnID uint64) error
	Get(k record.Key) (record.Version, bool, error)
	GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error)
	History(k record.Key) ([]record.Version, error)
	// ScanPageAsOf returns the first page of the snapshot of [low, high)
	// at time at, from the low edge (the high edge when reverse).
	ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error)
	// ScanRangePage returns the first forward key page of the versions
	// of [low, high) valid at any moment in [from, to), in (key, time)
	// order.
	ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp) (core.Page, error)
}

// Deprecated: the former optional extensions of Store, now aliases of
// it. Nothing in this module names them; they exist only so the
// compile-time assertions in bench/trace.go keep building, and go when
// those do.
type (
	CursorStore       = Store
	WindowCursorStore = Store
	Differ            = Store
)

// Errors returned by the transaction layer.
var (
	// ErrLockConflict is returned when a write hits a key locked by
	// another transaction (no-wait policy); the tree's Insert detects it.
	ErrLockConflict = core.ErrLockConflict
	// ErrDone is returned when a finished transaction is used again.
	ErrDone = errors.New("txn: transaction already committed or aborted")
)

// Stats counts transaction outcomes.
type Stats struct {
	Begun     uint64
	Committed uint64
	Aborted   uint64
	Readers   uint64
	Conflicts uint64
	// CommitBatches counts group-commit batches: every batch is one
	// commit-log append + fsync (when a log is attached) and one clock
	// advance, so Committed/CommitBatches is the fsync amortization
	// factor.
	CommitBatches uint64
}

// CommitHook is invoked under the commit leadership once per committed
// transaction, with its CommitRecord, after every version of the record
// is stamped in the store and before the next transaction is posted:
// the store then holds exactly the commits up to rec.Time, so a key's
// replaced version is its version as of rec.Time-1. The db layer
// maintains its secondary indexes from it, and recovery calls the same
// function with each replayed record.
type CommitHook func(rec CommitRecord) error

// CommitRecord is the redo record of one committed transaction: its
// stamped write set, in key order, every version carrying the commit
// time. It is what a CommitLog must make durable before the commit is
// acknowledged, and what recovery replays.
type CommitRecord struct {
	TxnID    uint64
	Time     record.Timestamp
	Versions []record.Version
}

// CommitLog is the durability hook of the commit path. AppendBatch must
// make every record durable (one fsync for the whole batch) before
// returning nil; on error nothing of the batch may be considered
// committed. It is only ever called by one batch leader at a time.
type CommitLog interface {
	//tsb:io
	//tsb:sticky
	AppendBatch(recs []CommitRecord) error
}

// Manager issues transaction ids and commit timestamps and orders commit
// posting; the write locks are the pending versions in its Store. It is
// safe for concurrent use when its Store is.
type Manager struct {
	store Store

	// clock is the last fully-posted commit timestamp. Readers load it
	// wait-free; it is advanced only by a batch leader.
	clock  atomic.Uint64
	nextID atomic.Uint64

	// leaderCh is the commit leadership token (capacity 1): holding it
	// is what the commit mutex used to be. A committer that acquires it
	// drains the queue and posts the whole batch; committers that lose
	// the race park on their request's done channel instead of the
	// token, which is what lets batches form.
	leaderCh chan struct{} //tsb:latch level=3 name=commit-token

	// qMu guards the group-commit queue only.
	qMu   sync.Mutex //tsb:latch level=7 name=commit-queue
	queue []*commitReq

	hook CommitHook
	log  CommitLog
	// broken, when non-nil, permanently fails further commits: the
	// store failed to apply a durably-logged batch, so in-memory state
	// has diverged from the log and only recovery (reopening the
	// durable directory, which replays the log) reconciles them.
	// Written and read only under the leadership token.
	broken error

	// Outcome counters are obs instruments — the one source of truth;
	// Stats() derives from them and RegisterMetrics names them.
	begun, committed, aborted, readers, conflicts obs.Counter
	commitBatches                                 obs.Counter
	activeUpdaters                                atomic.Int64
	// commitLatency times Commit from enqueue to acknowledged result:
	// the full group-commit wait, including the batch's log append and
	// fsync whether this transaction led the batch or rode along.
	commitLatency obs.Histogram
}

// commitReq is one transaction waiting in the group-commit queue.
type commitReq struct {
	id     uint64
	writes []record.Version // pending write set, sorted by key
	done   chan commitResult
}

type commitResult struct {
	time record.Timestamp
	err  error
}

// NewManager returns a Manager over store. The clock starts at startTime
// (use the store's largest committed timestamp when re-opening).
func NewManager(store Store, startTime record.Timestamp) *Manager {
	m := &Manager{
		store:    store,
		leaderCh: make(chan struct{}, 1),
	}
	m.clock.Store(uint64(startTime))
	m.nextID.Store(1)
	return m
}

// SetCommitHook installs the per-transaction commit callback. It takes
// the leadership token, so every commit posted after it returns runs the
// hook.
func (m *Manager) SetCommitHook(h CommitHook) {
	m.leaderCh <- struct{}{}
	m.hook = h
	<-m.leaderCh
}

// SetCommitLog attaches the redo log: from now on a commit is
// acknowledged only after its record is durably appended. It must be
// called before concurrent transactions begin.
func (m *Manager) SetCommitLog(l CommitLog) {
	m.leaderCh <- struct{}{}
	m.log = l
	<-m.leaderCh
}

// Quiesce runs fn while holding the commit leadership token: no commit
// is mid-posting, the clock is stable, and every acknowledged commit is
// fully in the store (and, when a log is attached, durably appended).
// The checkpointer uses it to rotate the log at a consistent boundary.
// After the store has diverged from the commit log (a posting failure
// past a durable append), Quiesce refuses without running fn: the
// quiescent-boundary guarantees no longer hold, and in particular a
// checkpoint taken now would make the half-applied state durable and
// truncate the very records recovery needs to repair it.
//
//tsb:wraps commit-token
func (m *Manager) Quiesce(fn func() error) error {
	m.leaderCh <- struct{}{}
	defer func() { <-m.leaderCh }()
	if m.broken != nil {
		return m.broken
	}
	return fn()
}

// ActiveUpdaters returns the number of updating transactions begun but
// not yet committed or aborted.
func (m *Manager) ActiveUpdaters() int64 { return m.activeUpdaters.Load() }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Begun:         m.begun.Load(),
		Committed:     m.committed.Load(),
		Aborted:       m.aborted.Load(),
		Readers:       m.readers.Load(),
		Conflicts:     m.conflicts.Load(),
		CommitBatches: m.commitBatches.Load(),
	}
}

// RegisterMetrics names the manager's instruments in r; the engine
// facade calls it once at open.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("tsb_txns_begun_total", "updating transactions begun", &m.begun)
	r.RegisterCounter("tsb_commits_total", "transactions committed", &m.committed)
	r.RegisterCounter("tsb_aborts_total", "transactions aborted", &m.aborted)
	r.RegisterCounter("tsb_readers_total", "read-only transactions opened", &m.readers)
	r.RegisterCounter("tsb_conflicts_total", "no-wait lock conflicts", &m.conflicts)
	r.RegisterCounter("tsb_commit_batches_total", "group-commit batches posted", &m.commitBatches)
	r.RegisterHistogram("tsb_commit_latency_seconds",
		"Commit wait from enqueue to acknowledgment, including the batch log append and fsync", &m.commitLatency)
	r.GaugeFunc("tsb_active_updaters", "updating transactions in flight", func() float64 {
		return float64(m.activeUpdaters.Load())
	})
}

// Now returns the last fully-posted commit timestamp.
func (m *Manager) Now() record.Timestamp {
	return record.Timestamp(m.clock.Load())
}

// Txn is an updating transaction. A Txn must be used by one goroutine at
// a time.
type Txn struct {
	m  *Manager
	id uint64
	// writes buffers the pending version last written per key: the
	// transaction's write set, which becomes its redo CommitRecord.
	writes     map[string]record.Version
	done       bool
	commitTime record.Timestamp
}

// Begin starts an updating transaction.
func (m *Manager) Begin() *Txn {
	m.begun.Add(1)
	m.activeUpdaters.Add(1)
	return &Txn{m: m, id: m.nextID.Add(1), writes: make(map[string]record.Version)}
}

// ID returns the transaction's id.
func (t *Txn) ID() uint64 { return t.id }

// CommitTime returns the timestamp the transaction committed at, or 0 if
// it has not (successfully) committed or wrote nothing.
func (t *Txn) CommitTime() record.Timestamp { return t.commitTime }

// write inserts the pending version v, which claims the key's write lock
// or fails with ErrLockConflict.
func (t *Txn) write(v record.Version) error {
	if t.done {
		return ErrDone
	}
	if err := t.m.store.Insert(v); err != nil {
		if errors.Is(err, ErrLockConflict) {
			t.m.conflicts.Add(1)
		}
		return err
	}
	t.writes[string(v.Key)] = v
	return nil
}

// Put writes a pending (untimestamped) version of key k.
func (t *Txn) Put(k record.Key, val []byte) error {
	return t.write(record.Version{
		Key: k.Clone(), Time: record.TimePending, TxnID: t.id,
		Value: append([]byte(nil), val...),
	})
}

// Delete writes a pending tombstone for key k.
func (t *Txn) Delete(k record.Key) error {
	return t.write(record.Version{
		Key: k.Clone(), Time: record.TimePending, TxnID: t.id, Tombstone: true,
	})
}

// Get returns the transaction's own pending write of k if it has one,
// otherwise the most recently committed version (read-committed: a
// concurrent commit mid-posting may already be visible key by key). An
// own write is answered from the write set; the caller gets a copy,
// since those bytes become the commit record.
func (t *Txn) Get(k record.Key) (record.Version, bool, error) {
	if t.done {
		return record.Version{}, false, ErrDone
	}
	if v, wrote := t.writes[string(k)]; wrote {
		if v.Tombstone {
			return record.Version{}, false, nil
		}
		v.Key = v.Key.Clone()
		v.Value = append([]byte(nil), v.Value...)
		return v, true, nil
	}
	v, ok, err := t.m.store.Get(k)
	if err != nil || !ok {
		return record.Version{}, false, err
	}
	return v, true, nil
}

// sortedWrites returns the write set in key order, for deterministic
// commit application.
func (t *Txn) sortedWrites() []record.Version {
	out := make([]record.Version, 0, len(t.writes))
	for _, v := range t.writes {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// Commit assigns the transaction its commit timestamp and stamps every
// pending version with it. All of a transaction's versions carry the same
// commit time. Commits are posted strictly in timestamp order; the shared
// clock advances only once every version is posted.
//
// Commit is the group-commit entry point: the transaction's write set
// joins the commit queue, and either a concurrent leader posts it as part
// of a batch (Commit then simply waits for the durable result) or this
// transaction takes the leadership token and posts the whole queue
// itself. Either way, when a commit log is attached, a nil return means
// the commit record is fsynced.
//
// If posting fails partway (a store error — with the simulated devices
// this means fault injection or corruption), Commit erases the
// still-pending keys, releases every lock, and returns the error. Keys
// already stamped stay stamped: if any were, the clock still advances so
// no later transaction can share the torn commit's timestamp. The
// transaction counts as aborted. When a commit log is attached, a
// posting failure happens after the record is already durable, so the
// outcome is "unknown": the in-memory store has diverged from the log,
// the manager refuses all further commits, and reopening the durable
// directory reconciles by replaying the record as committed.
//
//tsb:locks commit-token commit-queue
func (t *Txn) Commit() error {
	m := t.m
	if t.done {
		return ErrDone
	}
	t.done = true
	// The updater stays counted until its outcome is decided, so
	// ActiveUpdaters never reports quiescence mid-posting.
	defer m.activeUpdaters.Add(-1)
	if len(t.writes) == 0 {
		m.committed.Add(1)
		return nil
	}
	req := &commitReq{id: t.id, writes: t.sortedWrites(), done: make(chan commitResult, 1)}
	start := time.Now()
	m.qMu.Lock()
	m.queue = append(m.queue, req)
	m.qMu.Unlock()

	var res commitResult
	select {
	case res = <-req.done:
		// A concurrent leader posted our batch.
	case m.leaderCh <- struct{}{}:
		res = m.lead(req)
	}
	m.commitLatency.Observe(time.Since(start))
	if res.err != nil {
		return res.err
	}
	t.commitTime = res.time
	return nil
}

// lead runs one group-commit batch as the leadership holder and returns
// own's result. Called with the leadership token held; releases it.
func (m *Manager) lead(own *commitReq) commitResult {
	defer func() { <-m.leaderCh }()
	// The previous leader may have posted our request between our enqueue
	// and our acquisition of the token; its result send happens-before
	// the token release, so a buffered value is visible here.
	select {
	case res := <-own.done:
		return res
	default:
	}
	m.qMu.Lock()
	batch := m.queue
	m.queue = nil
	m.qMu.Unlock()
	m.runBatch(batch)
	return <-own.done
}

// runBatch posts one group-commit batch: consecutive commit timestamps,
// one commit-log append (when a log is attached), one clock advance, and
// only then the per-request results. Called under the leadership token.
func (m *Manager) runBatch(batch []*commitReq) {
	if m.broken != nil {
		// The store diverged from the commit log earlier: refuse to
		// widen the divergence. Pending versions still get erased and
		// locks released so nothing leaks.
		for _, req := range batch {
			m.failCommit(req.writes, req.id)
			req.done <- commitResult{err: m.broken}
		}
		return
	}
	m.commitBatches.Add(1)
	base := record.Timestamp(m.clock.Load())
	var recs []CommitRecord
	if m.log != nil || m.hook != nil {
		recs = make([]CommitRecord, len(batch))
		for i, req := range batch {
			ct := base + record.Timestamp(i) + 1
			vs := make([]record.Version, len(req.writes))
			for j, v := range req.writes {
				v.Time = ct
				vs[j] = v
			}
			recs[i] = CommitRecord{TxnID: req.id, Time: ct, Versions: vs}
		}
	}
	if m.log != nil {
		if err := m.log.AppendBatch(recs); err != nil {
			// Durability failed before anything was stamped: the whole
			// batch aborts — pending versions erased, locks released,
			// clock untouched.
			err = fmt.Errorf("txn: commit log append: %w", err)
			for _, req := range batch {
				m.failCommit(req.writes, req.id)
				req.done <- commitResult{err: err}
			}
			return
		}
	}
	results := make([]commitResult, len(batch))
	advance := base
	for i, req := range batch {
		ct := base + record.Timestamp(i) + 1
		posted, err := m.postTxn(req, ct)
		if err == nil && m.hook != nil {
			if err = m.callHook(recs[i]); err != nil {
				// Every key is stamped but the hook failed: the
				// transaction counts as aborted, and its timestamp is
				// burned below.
				m.failCommit(nil, req.id)
			}
		}
		if err != nil {
			results[i] = commitResult{err: err}
			if posted {
				// The torn timestamp is burned: no later transaction
				// may share it.
				advance = ct
			}
			if m.log != nil && m.broken == nil {
				// The record is already durable but the store refused
				// it: runtime state has diverged from the log (for this
				// caller the commit outcome is "unknown" — recovery
				// will replay the record as committed). Poison the
				// commit path; reopening the directory reconciles.
				m.broken = fmt.Errorf("txn: store diverged from the commit log (reopen to recover): %w", err)
			}
			continue
		}
		results[i] = commitResult{time: ct}
		advance = ct
		m.committed.Add(1)
	}
	if advance > base {
		m.clock.Store(uint64(advance))
	}
	for i, req := range batch {
		req.done <- results[i]
	}
}

// postTxn stamps every pending version of one transaction with its
// commit time, which releases its lock. On a store error it cleans up
// the unposted remainder (failCommit) and reports whether anything of
// the transaction reached the store stamped.
func (m *Manager) postTxn(req *commitReq, ct record.Timestamp) (posted bool, err error) {
	for j, v := range req.writes {
		if err := m.store.CommitKey(v.Key, req.id, ct); err != nil {
			m.failCommit(req.writes[j:], req.id)
			return j > 0, fmt.Errorf("txn: commit of %s: %w", v.Key, err)
		}
	}
	return true, nil
}

// callHook runs the commit hook, converting a panic into an error: the
// hook runs user code (secondary-key extraction) on the batch leader's
// goroutine, and a panic escaping here would unwind the leader with
// batch-mates still waiting for results — parking the next leader on an
// empty queue forever. As an error it takes the ordinary torn-commit
// cleanup path instead.
func (m *Manager) callHook(rec CommitRecord) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("txn: commit hook panicked: %v", r)
		}
	}()
	if err := m.hook(rec); err != nil {
		return fmt.Errorf("txn: commit hook at %s: %w", rec.Time, err)
	}
	return nil
}

// failCommit cleans up a failed commit: the remaining write set's
// pending versions — its locks — are erased best-effort. AbortKey fails
// if the version is gone (the failed CommitKey stamped it anyway), and
// then there is no lock left to release; after a hook failure every key
// is stamped and nothing remains. Burning a torn timestamp is the batch
// leader's job. Called under the leadership token.
func (m *Manager) failCommit(remaining []record.Version, txnID uint64) {
	for _, v := range remaining {
		_ = m.store.AbortKey(v.Key, txnID)
	}
	m.aborted.Add(1)
}

// Abort erases the transaction's pending versions. Aborting is always
// possible because uncommitted data never reaches the write-once device.
func (t *Txn) Abort() error {
	m := t.m
	if t.done {
		return ErrDone
	}
	t.done = true
	defer m.activeUpdaters.Add(-1)
	// Erasing a pending version releases its lock. Every key is tried
	// even after one fails; the first error is reported.
	var firstErr error
	for _, v := range t.sortedWrites() {
		if err := m.store.AbortKey(v.Key, t.id); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("txn: abort of %s: %w", v.Key, err)
		}
	}
	m.aborted.Add(1)
	return firstErr
}

// ReadTxn is a read-only transaction: a frozen timestamp, no locks.
type ReadTxn struct {
	m  *Manager
	at record.Timestamp
}

// ReadOnly starts a read-only transaction with a timestamp issued at
// initiation (§4.1). Issuing the timestamp is a wait-free atomic load: a
// reader never blocks on an updater. It sees exactly the versions
// committed at or before that time — never a pending version — and
// acquires no logical locks (reads take only short physical shard
// latches in the store).
func (m *Manager) ReadOnly() *ReadTxn {
	m.readers.Add(1)
	return &ReadTxn{m: m, at: record.Timestamp(m.clock.Load())}
}

// ReadAt returns a read-only transaction pinned to an arbitrary past
// timestamp — the rollback-database time-travel path. Snapshots are
// consistent for any at <= Now().
func (m *Manager) ReadAt(at record.Timestamp) *ReadTxn {
	m.readers.Add(1)
	return &ReadTxn{m: m, at: at}
}

// History returns the full committed version history of key k.
func (m *Manager) History(k record.Key) ([]record.Version, error) {
	return m.store.History(k)
}

// Timestamp returns the reader's snapshot time.
func (r *ReadTxn) Timestamp() record.Timestamp { return r.at }

// Get returns the version of k valid at the reader's timestamp.
func (r *ReadTxn) Get(k record.Key) (record.Version, bool, error) {
	return r.m.store.GetAsOf(k, r.at)
}

// Scan returns the snapshot of [low, high) at the reader's timestamp —
// the backup/unload path of §4.1, which takes no logical locks. It is a
// thin Collect wrapper over Cursor; callers that want pagination, a
// limit, reverse order, or early termination should use Cursor or Range
// directly.
func (r *ReadTxn) Scan(low record.Key, high record.Bound) ([]record.Version, error) {
	return r.Cursor(low, high, ScanOptions{}).Collect()
}

// Update runs fn inside a transaction, committing on success and
// aborting on error — or on a panic in fn, which would otherwise leak
// the transaction's locks and leave it counted as an active updater
// forever (the panic itself still propagates).
func (m *Manager) Update(fn func(*Txn) error) error {
	t := m.Begin()
	defer func() {
		if !t.done {
			_ = t.Abort()
		}
	}()
	if err := fn(t); err != nil {
		if aerr := t.Abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	return t.Commit()
}
