package db

import (
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/txn"
)

// TestWALBacklogAcrossCheckpoint pins the Stats().WAL.BacklogBytes
// contract and the checkpoint trigger built on it: the backlog grows with
// appends; the append that leaves it at CheckpointBytes signals
// CheckpointDue before its commit returns, while a run one commit under
// the threshold signals nothing; the background checkpoint that signal
// starts completes with no further commit and re-anchors the backlog to
// zero, as a manual checkpoint does; and it grows again from there. The
// signal is read off the channel with the maintenance loop parked, so
// no clock decides anything.
func TestWALBacklogAcrossCheckpoint(t *testing.T) {
	put := func(d *DB, i byte) {
		t.Helper()
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.Key{i}, []byte("backlog-payload"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Every commit below appends one frame of the same size.
	probe := openDur(t, Config{Dir: t.TempDir(), CheckpointBytes: -1})
	put(probe, 1)
	frame := probe.Stats().WAL.Bytes

	d, err := Open(Config{Dir: t.TempDir(), Shards: 2, CheckpointBytes: int64(3 * frame)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	due := d.wal.CheckpointDue()
	close(d.stopCp) // park the loop: the test reads the signal itself
	d.cpDone.Wait()
	d.stopCp = make(chan struct{})

	if got := d.Stats().WAL.BacklogBytes; got != 0 {
		t.Fatalf("fresh database backlog = %d, want 0", got)
	}
	put(d, 1)
	put(d, 2)
	st := d.Stats().WAL
	if st.BacklogBytes != 2*frame || st.BacklogBytes != st.Bytes || d.WALBacklogBytes() != st.BacklogBytes {
		t.Fatalf("backlog = %d (bytes %d, lock-free read %d), want %d", st.BacklogBytes, st.Bytes, d.WALBacklogBytes(), 2*frame)
	}
	if len(due) != 0 {
		t.Fatal("a backlog one commit under CheckpointBytes signalled a checkpoint")
	}
	put(d, 3)
	if len(due) != 1 {
		t.Fatal("the append that reached CheckpointBytes did not signal a checkpoint")
	}

	// Restart the loop with nothing more committed: the pending signal
	// alone must get the checkpoint done.
	base := d.Stats().Checkpoint.Checkpoints
	d.cpDone.Add(1)
	go d.maintenanceLoop()
	for deadline := time.Now().Add(10 * time.Second); d.Stats().Checkpoint.Checkpoints == base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the signalled background checkpoint never completed")
		}
	}
	if got := d.Stats().WAL.BacklogBytes; got != 0 || len(due) != 0 {
		t.Fatalf("after the background checkpoint: backlog %d, %d signals pending; want 0, 0", got, len(due))
	}

	put(d, 4)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().WAL.BacklogBytes; got != 0 {
		t.Fatalf("post-checkpoint backlog = %d, want 0", got)
	}
	put(d, 5)
	if got := d.Stats().WAL.BacklogBytes; got != frame || d.WALBacklogBytes() != frame {
		t.Fatalf("post-checkpoint append backlog = %d (lock-free read %d), want %d", got, d.WALBacklogBytes(), frame)
	}
}
