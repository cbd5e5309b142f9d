package txn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
)

// recordingLog captures every batch AppendBatch receives; an optional
// per-append delay widens the batching window, and a scheduled error
// fails one append.
type recordingLog struct {
	mu      sync.Mutex
	batches [][]CommitRecord
	delay   time.Duration
	failMsg string // non-empty = next append fails
}

func (l *recordingLog) AppendBatch(recs []CommitRecord) error {
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failMsg != "" {
		msg := l.failMsg
		l.failMsg = ""
		return errors.New(msg)
	}
	cp := make([]CommitRecord, len(recs))
	copy(cp, recs)
	l.batches = append(l.batches, cp)
	return nil
}

func (l *recordingLog) snapshot() [][]CommitRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]CommitRecord, len(l.batches))
	copy(out, l.batches)
	return out
}

func TestCommitLogReceivesStampedWriteSet(t *testing.T) {
	m, _ := newManager(t)
	log := &recordingLog{}
	m.SetCommitLog(log)

	tx := m.Begin()
	if err := tx.Put(record.StringKey("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(record.StringKey("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(record.StringKey("c")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	batches := log.snapshot()
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
	rec := batches[0][0]
	if rec.TxnID != tx.ID() || rec.Time != tx.CommitTime() {
		t.Errorf("record header = %+v, want txn %d at %v", rec, tx.ID(), tx.CommitTime())
	}
	if len(rec.Versions) != 3 {
		t.Fatalf("record has %d versions, want 3", len(rec.Versions))
	}
	wantKeys := []string{"a", "b", "c"}
	for i, v := range rec.Versions {
		if string(v.Key) != wantKeys[i] {
			t.Errorf("version %d key = %s, want %s (key order)", i, v.Key, wantKeys[i])
		}
		if v.Time != rec.Time {
			t.Errorf("version %d time = %v, want stamped %v", i, v.Time, rec.Time)
		}
	}
	if !rec.Versions[2].Tombstone {
		t.Error("delete should log a tombstone version")
	}
	// A transaction with no writes logs nothing.
	if err := m.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
	if got := log.snapshot(); len(got) != 1 {
		t.Errorf("empty commit appended to the log: %v", got)
	}
}

func TestCommitLogFailureAbortsWholeBatch(t *testing.T) {
	m, _ := newManager(t)
	log := &recordingLog{failMsg: "injected append failure"}
	m.SetCommitLog(log)
	before := m.Now()

	tx := m.Begin()
	if err := tx.Put(record.StringKey("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit should fail when the log append fails")
	}
	if m.Now() != before {
		t.Errorf("clock advanced to %v after failed append", m.Now())
	}
	if tx.CommitTime() != 0 {
		t.Errorf("failed commit reports time %v", tx.CommitTime())
	}
	// The pending version is erased and the lock released.
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("k")); ok {
		t.Error("unlogged write visible after failed append")
	}
	tx2 := m.Begin()
	if err := tx2.Put(record.StringKey("k"), []byte("v2")); err != nil {
		t.Fatalf("lock leaked: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Committed != 1 || st.Aborted != 1 {
		t.Errorf("stats = %+v, want 1 committed / 1 aborted", st)
	}
}

func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	m, _ := newManager(t)
	// The sync delay widens the batching window the way a real fsync
	// does, making amortization deterministic enough to assert on.
	log := &recordingLog{delay: 2 * time.Millisecond}
	m.SetCommitLog(log)

	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := record.StringKey(fmt.Sprintf("w%02d-%03d", w, i))
				if err := m.Update(func(tx *Txn) error { return tx.Put(k, []byte("v")) }); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := m.Stats()
	if st.Committed != workers*perWorker {
		t.Fatalf("committed = %d, want %d", st.Committed, workers*perWorker)
	}
	batches := log.snapshot()
	if uint64(len(batches)) != st.CommitBatches {
		t.Errorf("log saw %d batches, stats say %d", len(batches), st.CommitBatches)
	}
	// With 8 workers committing against a 2ms append, batches must form:
	// the whole point of group commit. Demand an average of >= 2
	// committers per append (the acceptance bar) with margin for the
	// serial head and tail of the run.
	avg := float64(st.Committed) / float64(st.CommitBatches)
	if avg < 2 {
		t.Errorf("amortization %.2f commits/batch, want >= 2 (batches=%d)", avg, st.CommitBatches)
	}

	// Batches carry consecutive timestamps with one clock advance each:
	// replaying the log in order must reproduce every commit time with
	// no gaps or duplicates.
	var last record.Timestamp
	for _, batch := range batches {
		for _, rec := range batch {
			if rec.Time != last+1 {
				t.Fatalf("commit times not consecutive: %v after %v", rec.Time, last)
			}
			last = rec.Time
		}
	}
	if last != m.Now() {
		t.Errorf("last logged time %v != clock %v", last, m.Now())
	}
}

// divergingStore fails CommitKey for one key, once, to force a posting
// failure after the batch was durably logged.
type divergingStore struct {
	Store
	failKey string
	fired   bool
}

func (f *divergingStore) CommitKey(k record.Key, txnID uint64, ct record.Timestamp) error {
	if string(k) == f.failKey && !f.fired {
		f.fired = true
		return fmt.Errorf("injected store failure for %s", k)
	}
	return f.Store.CommitKey(k, txnID, ct)
}

func TestPostingFailureAfterLogPoisonsCommits(t *testing.T) {
	mag := storageNew(t)
	m := NewManager(&divergingStore{Store: mag, failKey: "k"}, 0)
	log := &recordingLog{}
	m.SetCommitLog(log)

	// The record reaches the durable log, then the store refuses it:
	// the commit outcome is "unknown" and the manager must stop
	// committing — runtime state has diverged from what recovery would
	// replay.
	tx := m.Begin()
	if err := tx.Put(record.StringKey("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit should surface the posting failure")
	}
	if got := log.snapshot(); len(got) != 1 {
		t.Fatalf("the failed commit's record should be durable: %v", got)
	}
	// Every later commit is refused with the divergence error, but
	// leaves no pending garbage or held locks behind.
	tx2 := m.Begin()
	if err := tx2.Put(record.StringKey("other"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	err := tx2.Commit()
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("poisoned manager commit = %v, want divergence error", err)
	}
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("other")); ok {
		t.Error("refused commit left data visible")
	}
	if got := log.snapshot(); len(got) != 1 {
		t.Errorf("poisoned manager appended to the log: %v", got)
	}
	// Quiesce refuses too: a checkpoint taken now would persist the
	// diverged state and truncate the redo record recovery needs.
	if err := m.Quiesce(func() error { t.Error("Quiesce ran on a diverged manager"); return nil }); err == nil {
		t.Fatal("Quiesce on a diverged manager should fail")
	}
	// Without a commit log, a posting failure keeps the pre-durability
	// semantics: the transaction aborts and the manager keeps going
	// (covered by TestCommitFailureReleasesLocksAndBurnsTimestamp).
}

// storageNew builds a latched single-tree store for the poisoning test.
func storageNew(t *testing.T) Store {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := core.New(mag, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return newLatchedStore(tree)
}

// TestCommitHookPanicDoesNotStrandLeadership: an index write the store
// refuses when the batch leader posts it follows the posting-failure
// rule of a refused CommitKey. The leader answers every waiter and
// releases the token; with a commit log attached the record is durable
// while the store lacks part of it, so the manager refuses further
// commits and checkpoints until a reopen replays the log.
func TestCommitHookPanicDoesNotStrandLeadership(t *testing.T) {
	m, _ := newManager(t)
	m.SetCommitLog(commitLogFunc(func([]CommitRecord) error { return nil }))
	m.SetIndexes(indexFuncs{
		derive: func(_ record.Version, _ bool, cur record.Version) ([]IndexWrite, error) {
			return []IndexWrite{{Index: "ix", Version: record.Version{Key: cur.Key}}}, nil
		},
		insert: func(w IndexWrite) error {
			if string(w.Version.Key) == "boom" {
				return errors.New("index device refused")
			}
			return nil
		},
	})
	tx := m.Begin()
	if err := tx.Put(record.StringKey("boom"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "index device refused") {
		t.Fatalf("commit with a refused index write = %v", err)
	}
	if st := m.Stats(); st.Aborted != 1 || st.Committed != 0 || m.Now() != 1 {
		t.Fatalf("stats = %+v, clock %s; want one abort and the torn timestamp burned", st, m.Now())
	}
	// The leadership token was released: the next commit gets an answer
	// instead of parking forever, and that answer is the diverged
	// manager's refusal; a checkpoint would be refused too.
	tx2 := m.Begin()
	if err := tx2.Put(record.StringKey("fine"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("commit after a refused index write = %v, want the diverged refusal", err)
	}
	if err := m.Quiesce(func() error { return nil }); err == nil {
		t.Fatal("Quiesce on a diverged manager should fail")
	}
}

// TestCommitCheckAbortsBeforeQueue: a write set whose index derivation
// fails (here, by panicking) aborts in Commit with nothing stamped,
// logged or posted, its locks released, and the manager keeps
// committing.
func TestCommitCheckAbortsBeforeQueue(t *testing.T) {
	m, tree := newManager(t)
	var logged, posted int
	m.SetCommitLog(commitLogFunc(func(recs []CommitRecord) error {
		logged += len(recs)
		return nil
	}))
	ix := indexFuncs{
		derive: func(_ record.Version, _ bool, cur record.Version) ([]IndexWrite, error) {
			if string(cur.Value) == "boom" {
				panic("extractor exploded")
			}
			return []IndexWrite{{Index: "ix", Version: record.Version{Key: cur.Key}}}, nil
		},
		insert: func(IndexWrite) error { posted++; return nil },
	}
	m.SetIndexes(ix)
	now := m.Now()
	tx := m.Begin()
	for _, k := range []string{"a", "b"} {
		if err := tx.Put(record.StringKey(k), []byte("boom")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("commit of a refused write set = %v", err)
	}
	if logged != 0 || posted != 0 || m.Now() != now {
		t.Fatalf("refused commit reached the log (%d) or an index (%d), or moved the clock %s -> %s",
			logged, posted, now, m.Now())
	}
	if st := m.Stats(); st.Aborted != 1 || st.Committed != 0 {
		t.Fatalf("stats = %+v, want one abort", st)
	}
	if _, ok, err := tree.Get(record.StringKey("a")); err != nil || ok {
		t.Fatalf("refused version visible: ok=%v err=%v", ok, err)
	}
	// Its pending versions are gone, so both keys are writable again.
	if err := m.Update(func(tx *Txn) error {
		if err := tx.Put(record.StringKey("a"), []byte("x")); err != nil {
			return err
		}
		return tx.Put(record.StringKey("b"), []byte("y"))
	}); err != nil {
		t.Fatalf("commit after a refused one: %v", err)
	}
	if logged != 1 || posted != 2 {
		t.Fatalf("logged %d, posted %d, want 1 and 2", logged, posted)
	}
	// Without a router nothing is derived or posted.
	m.SetIndexes(nil)
	if err := m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("a"), []byte("boom")) }); err != nil {
		t.Fatalf("commit after the router was removed: %v", err)
	}
	if logged != 2 || posted != 2 {
		t.Fatalf("logged %d, posted %d, want 2 and 2", logged, posted)
	}
}

func TestActiveUpdatersCountsMidCommit(t *testing.T) {
	m, _ := newManager(t)
	release := make(chan struct{})
	m.SetCommitLog(commitLogFunc(func([]CommitRecord) error {
		<-release
		return nil
	}))
	tx := m.Begin()
	if err := tx.Put(record.StringKey("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	// While the commit is mid-flight (parked in the log append), the
	// updater must still be counted: quiescence means decided, not
	// merely submitted.
	for i := 0; i < 100; i++ {
		if n := m.ActiveUpdaters(); n != 1 {
			t.Fatalf("mid-commit ActiveUpdaters = %d, want 1", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := m.ActiveUpdaters(); n != 0 {
		t.Fatalf("post-commit ActiveUpdaters = %d", n)
	}
}

// commitLogFunc adapts a function to CommitLog.
type commitLogFunc func([]CommitRecord) error

func (f commitLogFunc) AppendBatch(recs []CommitRecord) error { return f(recs) }

func TestUpdateAbortsOnPanic(t *testing.T) {
	m, _ := newManager(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic should propagate out of Update")
			}
		}()
		_ = m.Update(func(tx *Txn) error {
			if err := tx.Put(record.StringKey("k"), []byte("v")); err != nil {
				return err
			}
			panic("user fn exploded")
		})
	}()
	// The transaction was aborted on the way out: no active updater
	// lingers, the lock is free, and nothing is visible.
	if n := m.ActiveUpdaters(); n != 0 {
		t.Fatalf("ActiveUpdaters after panic = %d", n)
	}
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("k")); ok {
		t.Error("panicked transaction's write visible")
	}
	if err := m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("v2")) }); err != nil {
		t.Fatalf("lock leaked after panic: %v", err)
	}
}

func TestActiveUpdatersTracksLifecycle(t *testing.T) {
	m, _ := newManager(t)
	if n := m.ActiveUpdaters(); n != 0 {
		t.Fatalf("fresh manager has %d active updaters", n)
	}
	tx1 := m.Begin()
	tx2 := m.Begin()
	if n := m.ActiveUpdaters(); n != 2 {
		t.Fatalf("after two begins: %d", n)
	}
	if err := tx1.Put(record.StringKey("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := m.ActiveUpdaters(); n != 0 {
		t.Fatalf("after commit+abort: %d", n)
	}
	// Readers do not count.
	m.ReadOnly()
	if n := m.ActiveUpdaters(); n != 0 {
		t.Fatalf("reader counted as updater: %d", n)
	}
}
