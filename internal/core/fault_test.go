package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// Failure injection: device errors must surface as errors (never panics),
// and the committed data written before the fault must stay readable and
// consistent once the device recovers.

func newFaultyTree(t *testing.T) (*Tree, *storage.FaultyPages) {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	faulty := storage.NewFaultyPages(mag)
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := New(faulty, worm, testConfig(PolicyLastUpdate))
	if err != nil {
		t.Fatal(err)
	}
	return tree, faulty
}

func TestInsertSurvivesTransientFaults(t *testing.T) {
	for _, op := range []string{"read", "write", "alloc"} {
		op := op
		t.Run(op, func(t *testing.T) {
			tree, faulty := newFaultyTree(t)
			ts := uint64(0)
			insert := func(i int) error {
				ts++
				return tree.Insert(record.Version{
					Key:   record.StringKey(fmt.Sprintf("key%03d", i%60)),
					Time:  record.Timestamp(ts),
					Value: []byte(fmt.Sprintf("v%d", ts)),
				})
			}
			// Build some structure first.
			for i := 0; i < 150; i++ {
				if err := insert(i); err != nil {
					t.Fatal(err)
				}
			}
			// Arm a fault and keep inserting until it trips (an
			// alloc fault only fires on a split). Every failure
			// must be reported, never a panic.
			faulty.FailAfter(op, 1)
			failures := 0
			for trial := 0; trial < 500 && failures == 0; trial++ {
				if err := insert(1000 + trial); err != nil {
					if !errors.Is(err, storage.ErrInjected) {
						t.Fatalf("unexpected error type: %v", err)
					}
					failures++
				}
			}
			faulty.Clear()
			if failures == 0 {
				t.Fatalf("no %s fault ever tripped an insert", op)
			}
			// Device healthy again: reads work and give consistent
			// answers for data committed before the fault window.
			for i := 0; i < 60; i++ {
				k := record.StringKey(fmt.Sprintf("key%03d", i))
				if _, _, err := tree.Get(k); err != nil {
					t.Fatalf("Get(%s) after recovery: %v", k, err)
				}
			}
		})
	}
}

func TestSearchReportsReadFaults(t *testing.T) {
	tree, faulty := newFaultyTree(t)
	for i := 0; i < 200; i++ {
		if err := tree.Insert(record.Version{
			Key:   record.StringKey(fmt.Sprintf("key%03d", i%40)),
			Time:  record.Timestamp(i + 1),
			Value: []byte("x"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	faulty.FailAfter("read", 1)
	if _, _, err := tree.Get(record.StringKey("key001")); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Get with failing read = %v", err)
	}
	faulty.Clear()
	faulty.FailAfter("read", 2)
	if _, err := tree.ScanAsOf(100, nil, record.InfiniteBound()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("ScanAsOf with failing read = %v", err)
	}
	faulty.Clear()
	// The inserts left the index nodes in the tree's index level, so
	// the first device read History makes is its current leaf's, which
	// every read still makes.
	faulty.FailAfter("read", 1)
	if _, err := tree.History(record.StringKey("key001")); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("History with failing read = %v", err)
	}
	faulty.Clear()
	// Healthy again.
	if _, _, err := tree.Get(record.StringKey("key001")); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
}

func TestCommitAbortReportFaults(t *testing.T) {
	tree, faulty := newFaultyTree(t)
	if err := tree.Insert(record.Version{
		Key: record.StringKey("k"), Time: record.TimePending, TxnID: 5, Value: []byte("draft"),
	}); err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter("write", 1)
	if err := tree.CommitKey(record.StringKey("k"), 5, 3); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("CommitKey with failing write = %v", err)
	}
	faulty.Clear()
	// The version is still pending; commit succeeds after recovery.
	if err := tree.CommitKey(record.StringKey("k"), 5, 3); err != nil {
		t.Fatalf("CommitKey after recovery: %v", err)
	}
	if v, ok, _ := tree.Get(record.StringKey("k")); !ok || string(v.Value) != "draft" {
		t.Fatalf("Get after recovered commit = %v, %v", v, ok)
	}
}

func TestFaultyPagesHarness(t *testing.T) {
	mag := storage.NewMagneticDisk(64, storage.CostModel{})
	f := storage.NewFaultyPages(mag)
	if f.PageSize() != 64 {
		t.Fatal("PageSize passthrough broken")
	}
	p, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f.FailAfter("write", 2)
	if err := f.Write(p, []byte("one")); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	if err := f.Write(p, []byte("two")); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("second write should fail: %v", err)
	}
	if err := f.Write(p, []byte("three")); err != nil {
		t.Fatalf("fault should auto-disarm: %v", err)
	}
	f.FailAfter("free", 1)
	if err := f.Free(p); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("free fault: %v", err)
	}
	f.Clear()
	if err := f.Free(p); err != nil {
		t.Fatalf("free after clear: %v", err)
	}
}
