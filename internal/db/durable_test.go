package db

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// openDur opens a durable database in dir and registers cleanup.
func openDur(t *testing.T, cfg Config) *DB {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDurableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir, Shards: 4})
	for i := 0; i < 50; i++ {
		put(t, d, fmt.Sprintf("key%03d", i%10), fmt.Sprintf("val%d", i))
	}
	if err := d.Update(func(tx *txn.Txn) error { return tx.Delete(record.StringKey("key003")) }); err != nil {
		t.Fatal(err)
	}
	wantNow := d.Now()
	wantHist, err := d.History(record.StringKey("key007"))
	if err != nil {
		t.Fatal(err)
	}
	wantScan, err := d.ReadAt(wantNow).Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Use after close fails cleanly.
	if err := d.Update(func(tx *txn.Txn) error { return tx.Put(record.StringKey("x"), nil) }); err == nil {
		t.Fatal("commit after Close should fail")
	}

	d2 := openDur(t, Config{Dir: dir})
	if d2.Shards() != 4 {
		t.Fatalf("reopened with %d shards, want 4", d2.Shards())
	}
	if d2.Now() != wantNow {
		t.Fatalf("reopened clock = %v, want %v", d2.Now(), wantNow)
	}
	gotScan, err := d2.ReadAt(wantNow).Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "scan", gotScan, wantScan)
	gotHist, err := d2.History(record.StringKey("key007"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "history", gotHist, wantHist)
	if _, ok, _ := d2.Get(record.StringKey("key003")); ok {
		t.Error("deleted key resurrected by recovery")
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The reopened database keeps committing durably.
	put(t, d2, "after", "restart")
	if d2.Now() != wantNow+1 {
		t.Errorf("commit after reopen at %v, want %v", d2.Now(), wantNow+1)
	}
}

// assertSameVersions compares two version slices on the durable fields
// (TxnID is incidental: fresh transactions renumber after a reopen).
func assertSameVersions(t *testing.T, what string, got, want []record.Version) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Key.Equal(w.Key) || g.Time != w.Time || g.Tombstone != w.Tombstone ||
			string(g.Value) != string(w.Value) {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, g, w)
		}
	}
}

func TestDurableSecondariesRecovered(t *testing.T) {
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, Shards: 2, Secondaries: secs})
	for i := 0; i < 40; i++ {
		put(t, d, fmt.Sprintf("emp%03d", i%8), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	at := d.Now()
	want, err := fetchSecondary(d, "dept", record.StringKey("dept01"), at)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint so recovery exercises the image+replay composition,
	// then write more so the tail is non-empty.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(t, d, "emp000", "dept01|post-checkpoint")
	at2 := d.Now()
	d.Close()

	// Reopening without extractors is refused.
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("reopen without extractors should fail")
	}
	if _, err := Open(Config{Dir: dir, Secondaries: map[string]SecondaryExtract{"wrong": deptExtract}}); err == nil {
		t.Fatal("reopen with wrong extractor name should fail")
	}

	d2 := openDur(t, Config{Dir: dir, Secondaries: secs})
	got, err := fetchSecondary(d2, "dept", record.StringKey("dept01"), at)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "secondary fetch", got, want)
	if n, _ := secondaryCount(d2, "dept", record.StringKey("dept01"), at2); n == 0 {
		t.Error("post-checkpoint secondary update lost")
	}
}

func TestDurableSecondariesMultiShardCheckpointReopen(t *testing.T) {
	// The secondary index is ONE tree spanning all shards, so recovery
	// must feed it commit times that never decrease GLOBALLY: its image
	// plus the tail past its own boundary, in log order, whatever the
	// per-shard boundaries are. Keys here are spread so consecutive
	// commits land on far-apart shards.
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, Shards: 4, Secondaries: secs, CheckpointBytes: -1})
	// First key byte rotates through 0x21/0x61/0xA1/0xE1 — one per
	// 16-bit-prefix shard quarter — so consecutive commit times land on
	// different shards.
	shardKey := func(i int) string {
		return fmt.Sprintf("%c-key%02d", byte(i%4)*64+33, i%6)
	}
	for i := 0; i < 60; i++ {
		put(t, d, shardKey(i), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint tail touching every shard again.
	for i := 0; i < 12; i++ {
		put(t, d, shardKey(i), fmt.Sprintf("dept%02d|tail%d", i%3, i))
	}
	at := d.Now()
	var want [3][]record.Version
	for dep := 0; dep < 3; dep++ {
		w, err := fetchSecondary(d, "dept", record.StringKey(fmt.Sprintf("dept%02d", dep)), at)
		if err != nil {
			t.Fatal(err)
		}
		want[dep] = w
	}
	d.Close()

	d2 := openDur(t, Config{Dir: dir, Secondaries: secs, CheckpointBytes: -1})
	if d2.Now() != at {
		t.Fatalf("recovered clock %v, want %v", d2.Now(), at)
	}
	for dep := 0; dep < 3; dep++ {
		got, err := fetchSecondary(d2, "dept", record.StringKey(fmt.Sprintf("dept%02d", dep)), at)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVersions(t, fmt.Sprintf("dept%02d fetch", dep), got, want[dep])
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableDirectoryLockedWhileOpen: a live directory refuses a second
// handle, and Close releases it on both of Close's paths — the clean one,
// which ends at a checkpoint covering every commit, and the one with a
// sticky background-checkpoint error, which returns that error and takes
// no checkpoint.
func TestDurableDirectoryLockedWhileOpen(t *testing.T) {
	for _, sticky := range []bool{false, true} {
		t.Run(fmt.Sprintf("sticky=%v", sticky), func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(Config{Dir: dir, CheckpointBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			put(t, d, "k", "v")
			// A second handle on the live directory would interleave log
			// segments with the first and lose acknowledged commits: refused.
			if _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrLocked) {
				t.Fatalf("second open = %v, want ErrLocked", err)
			}
			if sticky {
				// From here every checkpoint install tears: the background
				// pass the next commit triggers fails, and its error sticks.
				d.cpMu.Lock()
				d.logWrap = func(f storage.LogFile) storage.LogFile {
					return storage.NewTornLogFile(f, storage.NewTearPlan(0))
				}
				d.cpMu.Unlock()
				put(t, d, "k2", "v2")
				d.cpDone.Wait() // the loop stops on a sticky error
			}
			var before map[string]string
			if sticky { // with the loop stopped, nothing else writes the directory
				before = dirSnapshot(t, dir)
			}
			err = d.Close()
			if sticky {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("close with a sticky error = %v, want the injected tear", err)
				}
				if after := dirSnapshot(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatal("close with a sticky error changed the directory: it took a checkpoint")
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if n := framesPastCheckpoint(t, dir); n != 0 {
					t.Fatalf("%d frames past the checkpoint Close ended at", n)
				}
			}
			// Close released the lock; the directory reopens normally.
			d2 := openDur(t, Config{Dir: dir})
			if _, ok, _ := d2.Get(record.StringKey("k")); !ok {
				t.Fatal("data lost across lock release")
			}
		})
	}
}

func TestDurableCreateSecondaryAfterOpenSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	// Background checkpointing off: the reseal must come from
	// CreateSecondary itself, not from a lucky background pass.
	d := openDur(t, Config{Dir: dir, CheckpointBytes: -1})
	if err := d.CreateSecondary("dept", deptExtract); err != nil {
		t.Fatal(err)
	}
	put(t, d, "emp1", "dept07|x")
	at := d.Now()
	d.Close()

	// The registration was sealed into the checkpoint: reopening
	// without the extractor is refused, with it the index works.
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("reopen without extractor should fail")
	}
	d2 := openDur(t, Config{Dir: dir, Secondaries: map[string]SecondaryExtract{"dept": deptExtract}})
	if n, err := secondaryCount(d2, "dept", record.StringKey("dept07"), at); err != nil || n != 1 {
		t.Fatalf("recovered secondary count = %d, %v", n, err)
	}
}

func TestDurableShardMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir, Shards: 4})
	put(t, d, "k", "v")
	d.Close()
	if _, err := Open(Config{Dir: dir, Shards: 8}); err == nil {
		t.Fatal("shard-count mismatch should be rejected")
	}
	// Unspecified shard count adopts the directory's.
	d2 := openDur(t, Config{Dir: dir})
	if d2.Shards() != 4 {
		t.Fatalf("adopted %d shards, want 4", d2.Shards())
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	// Disable background checkpointing: this test drives it manually.
	d := openDur(t, Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
	for i := 0; i < 100; i++ {
		put(t, d, fmt.Sprintf("key%03d", i%10), fmt.Sprintf("val%d", i))
	}
	segsBefore, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore := d.Stats().WAL.Bytes
	if bytesBefore == 0 || len(segsBefore) == 0 {
		t.Fatalf("expected a non-empty log: %d bytes, %d segments", bytesBefore, len(segsBefore))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsAfter) != 1 {
		t.Fatalf("%d segments after checkpoint, want only the live one", len(segsAfter))
	}
	info, found, err := wal.ReadCheckpoint(dir)
	if err != nil || !found {
		t.Fatalf("checkpoint info: found=%v err=%v", found, err)
	}
	if info.Shards != 2 || info.Clock != d.Now() {
		t.Fatalf("checkpoint info = %+v, clock want %v", info, d.Now())
	}
	// Recovery from checkpoint-only (empty tail) reproduces the state.
	want, _ := d.ReadAt(d.Now()).Scan(nil, record.InfiniteBound())
	wantNow := d.Now()
	d.Close()
	d2 := openDur(t, Config{Dir: dir, CheckpointBytes: -1})
	got, _ := d2.ReadAt(wantNow).Scan(nil, record.InfiniteBound())
	assertSameVersions(t, "post-truncation scan", got, want)
	if d2.Now() != wantNow {
		t.Fatalf("clock after checkpoint-only recovery = %v, want %v", d2.Now(), wantNow)
	}
}

// TestBackgroundCheckpointerTruncates: with a tiny threshold, overwrites
// of ten keys trigger background pass after pass, and Close, called
// while the writer keeps them coming, races one: it neither deadlocks
// nor reports an error, and every key recovers its newest acknowledged
// value — or the one write Close cut off, which may have reached the log
// unacknowledged.
func TestBackgroundCheckpointerTruncates(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir, CheckpointBytes: 256})
	acked := map[string]string{} // each key's newest acknowledged value
	var cutKey, cutVal string    // the write Close cut off
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			k, v := fmt.Sprintf("key%02d", i%10), fmt.Sprintf("val%d", i)
			if err := d.Update(func(tx *txn.Txn) error {
				return tx.Put(record.StringKey(k), []byte(v))
			}); err != nil {
				cutKey, cutVal = k, v
				return // Close won
			}
			acked[k] = v
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); d.Stats().Checkpoint.Checkpoints < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close racing background checkpoints: %v", err)
	}
	<-done
	d2 := openDur(t, Config{Dir: dir, CheckpointBytes: -1})
	for k, want := range acked {
		v, ok, err := d2.Get(record.StringKey(k))
		if err != nil || !ok {
			t.Fatalf("acknowledged %s lost: ok=%v err=%v", k, ok, err)
		}
		if got := string(v.Value); got != want && (k != cutKey || got != cutVal) {
			t.Fatalf("%s recovered as %q, want its newest acknowledged value %q", k, got, want)
		}
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableGroupCommitAcknowledgesOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir})
	put(t, d, "a", "1")
	st := d.Stats()
	if st.WAL.Records == 0 || st.WAL.Syncs == 0 {
		t.Fatalf("commit did not reach the log: %+v", st.WAL)
	}
	// An aborted transaction must leave no trace in the log.
	tx := d.Begin()
	if err := tx.Put(record.StringKey("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().WAL.Records; got != st.WAL.Records {
		t.Errorf("abort appended to the log: %d -> %d records", st.WAL.Records, got)
	}
	wantNow := d.Now()
	d.Close()
	d2 := openDur(t, Config{Dir: dir})
	if _, ok, _ := d2.Get(record.StringKey("b")); ok {
		t.Error("aborted write recovered")
	}
	if d2.Now() != wantNow {
		t.Errorf("clock = %v, want %v", d2.Now(), wantNow)
	}
}

func TestDurableCheckpointOnInMemoryDBFails(t *testing.T) {
	d := open(t, Config{})
	if err := d.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory database should fail")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close on in-memory db: %v", err)
	}
	var errClosed = d.Close() // idempotent
	if errClosed != nil {
		t.Fatal(errClosed)
	}
}

func TestDurableConcurrentCommitsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	// Keys spread across all 4 shards and a secondary index riding
	// along: a checkpoint racing the writers must stay boundary-exact
	// per tree (replay must neither skip nor repeat a commit for any
	// shard or for the shard-spanning secondary tree).
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, Shards: 4, Secondaries: secs, CheckpointBytes: -1})
	const workers = 4
	const perWorker = 50
	errs := make(chan error, workers+1)
	done := make(chan struct{})
	go func() {
		// Checkpoint continuously while writers run: the "without
		// stopping writers" property under race.
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := d.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	var committed [workers][]string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// One byte per shard quarter: worker w's commits rotate
				// across every shard.
				k := fmt.Sprintf("%c-w%d-%03d", byte(i%4)*64+33, w, i)
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(record.StringKey(k), []byte(fmt.Sprintf("dept%02d|w%d-%d", i%3, w, i)))
				})
				if err != nil {
					errs <- err
					return
				}
				committed[w] = append(committed[w], k)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantNow := d.Now()
	wantDept0, err := secondaryCount(d, "dept", record.StringKey("dept00"), wantNow)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2 := openDur(t, Config{Dir: dir, Secondaries: secs, CheckpointBytes: -1})
	if d2.Now() != wantNow {
		t.Fatalf("recovered clock %v, want %v", d2.Now(), wantNow)
	}
	for w := range committed {
		for _, k := range committed[w] {
			if _, ok, err := d2.Get(record.StringKey(k)); err != nil || !ok {
				t.Fatalf("acknowledged commit %s lost: ok=%v err=%v", k, ok, err)
			}
		}
	}
	if gotDept0, _ := secondaryCount(d2, "dept", record.StringKey("dept00"), wantNow); gotDept0 != wantDept0 {
		t.Fatalf("recovered secondary count %d, want %d", gotDept0, wantDept0)
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
