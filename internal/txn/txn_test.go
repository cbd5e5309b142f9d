package txn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
)

func newManager(t *testing.T) (*Manager, *core.Tree) {
	t.Helper()
	return newManagerWith(t, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
}

// newManagerWith is newManager over a tree configured by cfg.
func newManagerWith(t *testing.T, cfg core.Config) (*Manager, *core.Tree) {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := core.New(mag, worm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(newLatchedStore(tree), tree.Now()), tree
}

func TestCommitMakesWritesVisible(t *testing.T) {
	m, _ := newManager(t)
	log := &recordingLog{}
	m.SetCommitLog(log)
	tx := m.Begin()
	if err := tx.Put(record.StringKey("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(record.StringKey("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Invisible to others before commit.
	r := m.ReadOnly()
	if _, ok, _ := r.Get(record.StringKey("a")); ok {
		t.Error("uncommitted write visible to reader")
	}
	// Visible to self, as a copy: the write set's bytes become the
	// commit record, so scribbling on the answer changes nothing.
	v, ok, _ := tx.Get(record.StringKey("a"))
	if !ok || string(v.Value) != "1" || v.TxnID != tx.ID() {
		t.Errorf("read-your-writes failed: %v, %v", v, ok)
	}
	v.Value[0], v.Key[0] = 'X', 'X'
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Both writes share one commit timestamp.
	r2 := m.ReadOnly()
	va, okA, _ := r2.Get(record.StringKey("a"))
	vb, okB, _ := r2.Get(record.StringKey("b"))
	if !okA || !okB {
		t.Fatal("committed writes missing")
	}
	rec := log.snapshot()[0][0]
	if string(va.Value) != "1" || string(rec.Versions[0].Key) != "a" || string(rec.Versions[0].Value) != "1" {
		t.Errorf("committed %q, logged %v; want the write as made", va.Value, rec.Versions[0])
	}
	if va.Time != vb.Time {
		t.Errorf("commit timestamps differ: %v vs %v", va.Time, vb.Time)
	}
	if m.Stats().Committed != 1 {
		t.Errorf("stats: %+v", m.Stats())
	}
}

func TestAbortErasesWrites(t *testing.T) {
	m, tree := newManager(t)
	if err := m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("keep")) }); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	tx.Put(record.StringKey("k"), []byte("discard"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := m.ReadOnly().Get(record.StringKey("k"))
	if !ok || string(v.Value) != "keep" {
		t.Fatalf("after abort Get = %v, %v", v, ok)
	}
	// The aborted write left no trace in the version history.
	h, _ := tree.History(record.StringKey("k"))
	if len(h) != 1 {
		t.Fatalf("history = %v, aborted write must leave no trace", h)
	}
	if m.Stats().Aborted != 1 {
		t.Errorf("stats: %+v", m.Stats())
	}
}

// conflictSetup builds a one-leaf tree of LeafCapacity 512 in which txn
// holder has a pending version of "k" and fill filler keys are committed.
func conflictSetup(t *testing.T, fill int) (*Manager, *core.Tree, *Txn) {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := core.New(mag, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32, LeafCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(newLatchedStore(tree), tree.Now())
	holder := m.Begin()
	if err := holder.Put(record.StringKey("k"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fill; i++ {
		if err := m.Update(func(tx *Txn) error {
			return tx.Put(record.StringKey(fmt.Sprintf("f%02d", i)), []byte("filler"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m, tree, holder
}

// nodeCounts is the number of distinct current and historical nodes
// reachable from the root, summed over the tree's levels.
func nodeCounts(t *testing.T, tree *core.Tree) [2]int {
	t.Helper()
	a, err := tree.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var n [2]int
	for _, l := range a.Levels {
		n[0] += l.CurrentNodes
		n[1] += l.HistoricalNodes
	}
	return n
}

// TestNoWaitLockConflict: a pending version is its transaction's write
// lock. A conflicting write fails at once and leaves no trace — not even
// the split an accepted write of the same size would have made — and the
// key is free again once the holder commits or aborts.
func TestNoWaitLockConflict(t *testing.T) {
	loserVal := []byte(strings.Repeat("v", 60))
	// The smallest fill at which one more write of loserVal's size
	// splits the leaf, found on twin trees.
	fill := 0
	for ; ; fill++ {
		m, tree, _ := conflictSetup(t, fill)
		if err := m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("j"), loserVal) }); err != nil {
			t.Fatal(err)
		}
		if tree.Stats().CurrentNodes > 1 {
			break
		}
		if fill > 100 {
			t.Fatal("leaf never split")
		}
	}
	for _, holderCommits := range []bool{true, false} {
		name := "abort"
		if holderCommits {
			name = "commit"
		}
		t.Run(name, func(t *testing.T) {
			m, tree, holder := conflictSetup(t, fill)
			stats := tree.Stats()
			nodes := nodeCounts(t, tree)
			loser := m.Begin()
			if err := loser.Put(record.StringKey("k"), loserVal); !errors.Is(err, ErrLockConflict) {
				t.Fatalf("conflicting write = %v, want ErrLockConflict", err)
			}
			// The Store path: a bare tree refuses the same way (txn's
			// error is core's).
			err := tree.Insert(record.Version{Key: record.StringKey("k"), Time: record.TimePending,
				TxnID: loser.ID(), Value: loserVal})
			if !errors.Is(err, core.ErrLockConflict) {
				t.Fatalf("bare tree insert = %v, want core.ErrLockConflict", err)
			}
			if m.Stats().Conflicts != 1 {
				t.Errorf("stats: %+v", m.Stats())
			}
			if got := tree.Stats(); got != stats {
				t.Errorf("refused writes changed the tree stats:\n%+v\n%+v", stats, got)
			}
			if got := nodeCounts(t, tree); got != nodes {
				t.Errorf("refused writes changed the node count: %v -> %v", nodes, got)
			}
			want := "1"
			if holderCommits {
				err = holder.Commit()
			} else {
				err = holder.Abort()
				want = ""
			}
			if err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := m.ReadOnly().Get(record.StringKey("k")); string(v.Value) != want || ok != holderCommits {
				t.Fatalf("after the holder finished: %q, %v", v.Value, ok)
			}
			if err := loser.Put(record.StringKey("k"), loserVal); err != nil {
				t.Fatal(err)
			}
			if err := loser.Commit(); err != nil {
				t.Fatal(err)
			}
			if v, _, _ := m.ReadOnly().Get(record.StringKey("k")); string(v.Value) != string(loserVal) {
				t.Fatalf("final value = %s", v.Value)
			}
			if len(tree.PendingWrites()) != 0 {
				t.Errorf("locks left after both finished: %v", tree.PendingWrites())
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadOnlySnapshotIsolation(t *testing.T) {
	m, _ := newManager(t)
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("x"), []byte("v1")) })
	r := m.ReadOnly()
	// Later updates do not affect the reader.
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("x"), []byte("v2")) })
	m.Update(func(tx *Txn) error { return tx.Delete(record.StringKey("x")) })
	v, ok, err := r.Get(record.StringKey("x"))
	if err != nil || !ok || string(v.Value) != "v1" {
		t.Fatalf("reader saw %v, %v, %v; want v1", v, ok, err)
	}
	// A fresh reader sees the delete.
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("x")); ok {
		t.Error("fresh reader should see the delete")
	}
	// Scan at the snapshot.
	vs, err := r.Scan(nil, record.InfiniteBound())
	if err != nil || len(vs) != 1 || string(vs[0].Value) != "v1" {
		t.Fatalf("reader scan = %v, %v", vs, err)
	}
}

func TestReaderNeverSeesPendingData(t *testing.T) {
	m, _ := newManager(t)
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("old")) })
	tx := m.Begin()
	tx.Put(record.StringKey("k"), []byte("inflight"))
	r := m.ReadOnly()
	v, ok, _ := r.Get(record.StringKey("k"))
	if !ok || string(v.Value) != "old" {
		t.Fatalf("reader saw %v, %v; must see the committed version", v, ok)
	}
	tx.Commit()
	// Reader's snapshot predates the commit: still "old".
	v, _, _ = r.Get(record.StringKey("k"))
	if string(v.Value) != "old" {
		t.Error("reader snapshot moved after a later commit")
	}
}

func TestUpdateHelperAbortsOnError(t *testing.T) {
	m, _ := newManager(t)
	sentinel := errors.New("boom")
	err := m.Update(func(tx *Txn) error {
		tx.Put(record.StringKey("k"), []byte("x"))
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update error = %v", err)
	}
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("k")); ok {
		t.Error("write survived aborted Update")
	}
}

func TestDoneTransactionsRejectUse(t *testing.T) {
	m, _ := newManager(t)
	tx := m.Begin()
	tx.Put(record.StringKey("k"), []byte("x"))
	tx.Commit()
	if err := tx.Put(record.StringKey("k"), []byte("y")); !errors.Is(err, ErrDone) {
		t.Errorf("Put after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Errorf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrDone) {
		t.Errorf("abort after commit = %v", err)
	}
	if _, _, err := tx.Get(record.StringKey("k")); !errors.Is(err, ErrDone) {
		t.Errorf("Get after commit = %v", err)
	}
}

func TestEmptyCommit(t *testing.T) {
	m, _ := newManager(t)
	before := m.Now()
	if err := m.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Now() != before {
		t.Error("empty commit should not advance the clock")
	}
}

// TestCommitHookSeesOldAndNew: the hook runs once per transaction with
// its commit record (the new versions), after every key of it is
// stamped, so the store answers each key's replaced version as of
// rec.Time-1 and the new one as of rec.Time.
func TestCommitHookSeesOldAndNew(t *testing.T) {
	m, tree := newManager(t)
	type event struct {
		key, old, new string
		oldOK         bool
	}
	var events []event
	calls := 0
	m.SetCommitHook(func(rec CommitRecord) error {
		calls++
		for _, newV := range rec.Versions {
			if newV.Time != rec.Time {
				t.Errorf("%s: record version at %s, record at %s", newV.Key, newV.Time, rec.Time)
			}
			got, ok, err := tree.GetAsOf(newV.Key, rec.Time)
			if err != nil || ok == newV.Tombstone || (ok && string(got.Value) != string(newV.Value)) {
				t.Errorf("%s: store at %s = %v %v %v, record holds %v", newV.Key, rec.Time, got, ok, err, newV)
			}
			oldV, oldOK, err := tree.GetAsOf(newV.Key, rec.Time-1)
			if err != nil {
				return err
			}
			ev := event{key: string(newV.Key), new: string(newV.Value), oldOK: oldOK}
			if oldOK {
				ev.old = string(oldV.Value)
			}
			if newV.Tombstone {
				ev.new = "<del>"
			}
			events = append(events, ev)
		}
		return nil
	})
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("v1")) })
	m.Update(func(tx *Txn) error {
		if err := tx.Put(record.StringKey("k"), []byte("v2")); err != nil {
			return err
		}
		return tx.Put(record.StringKey("j"), []byte("w1"))
	})
	m.Update(func(tx *Txn) error { return tx.Delete(record.StringKey("k")) })
	want := []event{
		{key: "k", old: "", oldOK: false, new: "v1"},
		{key: "j", old: "", oldOK: false, new: "w1"},
		{key: "k", old: "v1", oldOK: true, new: "v2"},
		{key: "k", old: "v2", oldOK: true, new: "<del>"},
	}
	if calls != 3 || len(events) != len(want) {
		t.Fatalf("%d calls, events = %v", calls, events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestTombstoneReadYourWrites(t *testing.T) {
	m, _ := newManager(t)
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("x")) })
	tx := m.Begin()
	tx.Delete(record.StringKey("k"))
	if _, ok, _ := tx.Get(record.StringKey("k")); ok {
		t.Error("transaction should see its own delete")
	}
	tx.Abort()
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	// Small leaves: a full scan reads several pages, so readers resume
	// pages while writers split the tree under them.
	const keys = 60
	m, tree := newManagerWith(t, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32, LeafCapacity: 256})
	for i := 0; i < keys; i++ {
		k := record.StringKey(fmt.Sprintf("key%02d", i))
		if err := m.Update(func(tx *Txn) error { return tx.Put(k, []byte("init")) }); err != nil {
			t.Fatal(err)
		}
	}
	// Writers run until every reader is done; readers yield between
	// rows, so splits land between the pages of a scan.
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := record.StringKey(fmt.Sprintf("key%02d", (w*15+i)%keys))
				err := m.Update(func(tx *Txn) error {
					return tx.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				})
				if err != nil && !errors.Is(err, ErrLockConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				rt := m.ReadOnly()
				cur := rt.Cursor(nil, record.InfiniteBound(), ScanOptions{})
				n := 0
				for ; cur.Next(); n++ {
					// A reader's snapshot is internally consistent: all
					// versions committed at or before its timestamp.
					if v := cur.Version(); v.Time > rt.Timestamp() {
						errs <- fmt.Errorf("snapshot leak: version %v after reader time %v", v.Time, rt.Timestamp())
						return
					}
					runtime.Gosched()
				}
				if err := cur.Err(); err != nil {
					errs <- err
					return
				}
				if n != keys {
					errs <- fmt.Errorf("snapshot size %d, want %d", n, keys)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := tree.Stats(); st.LeafKeySplits == 0 || st.LeafTimeSplits == 0 {
		t.Fatalf("writers split no leaf under the readers: %+v", st)
	}
	if p, err := tree.ScanPageAsOf(m.Now(), nil, record.InfiniteBound(), false); err != nil || p.Resume == nil {
		t.Fatalf("a full scan fits one page (err %v): no reader resumed a page", err)
	}
}

// failingStore injects a single CommitKey failure for one key, to
// exercise the torn-commit cleanup path.
type failingStore struct {
	Store
	failKey string
	fired   bool
}

func (f *failingStore) CommitKey(k record.Key, txnID uint64, ct record.Timestamp) error {
	if string(k) == f.failKey && !f.fired {
		f.fired = true
		return fmt.Errorf("injected commit failure for %s", k)
	}
	return f.Store.CommitKey(k, txnID, ct)
}

func TestCommitFailureReleasesLocksAndBurnsTimestamp(t *testing.T) {
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := core.New(mag, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(&failingStore{Store: newLatchedStore(tree), failKey: "b"}, tree.Now())

	tx := m.Begin()
	for _, k := range []string{"a", "b", "c"} {
		if err := tx.Put(record.StringKey(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit should have failed on injected error")
	}
	if tx.CommitTime() != 0 {
		t.Errorf("failed commit reports commit time %v", tx.CommitTime())
	}
	// "a" (sorted first) was stamped at time 1 before "b" failed, so the
	// clock must have burned timestamp 1: no later transaction may share it.
	if m.Now() != 1 {
		t.Errorf("clock = %v, want 1 (torn timestamp burned)", m.Now())
	}
	// The pending versions of "b" and "c" must be erased.
	for _, k := range []string{"b", "c"} {
		if _, ok, _ := m.ReadOnly().Get(record.StringKey(k)); ok {
			t.Errorf("key %s visible after failed commit", k)
		}
	}
	// Every lock must be released: a fresh transaction can write and
	// commit all three keys, at a strictly later timestamp.
	tx2 := m.Begin()
	for _, k := range []string{"a", "b", "c"} {
		if err := tx2.Put(record.StringKey(k), []byte("v2-"+k)); err != nil {
			t.Fatalf("lock leaked for %s: %v", k, err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx2.CommitTime() != 2 {
		t.Errorf("second commit at %v, want 2", tx2.CommitTime())
	}
	st := m.Stats()
	if st.Committed != 1 || st.Aborted != 1 {
		t.Errorf("stats = %+v, want 1 committed / 1 aborted", st)
	}
}
