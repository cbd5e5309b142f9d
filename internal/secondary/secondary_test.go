package secondary

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
)

func newIndex(t *testing.T) *core.Tree {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	ix, err := core.New(mag, worm, TreeConfig(core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32}))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func k(s string) record.Key { return record.StringKey(s) }

// apply posts the change of pkey's secondary key at commit time ts (from
// oldSkey if oldOK, to newSkey unless removed) to index tree ix as the
// committing transaction does: Transition's entries, stamped with ts.
func apply(ix *core.Tree, ts record.Timestamp, pkey, oldSkey record.Key, oldOK bool, newSkey record.Key, removed bool) error {
	if !oldOK {
		oldSkey = nil
	}
	if removed {
		newSkey = nil
	}
	retire, post, err := Transition(ix, pkey, oldSkey, newSkey)
	if err == nil && retire != nil {
		err = ix.Insert(record.Version{Key: retire, Time: ts, Tombstone: true})
	}
	if err == nil && post != nil {
		err = ix.Insert(record.Version{Key: post, Time: ts, Value: pkey})
	}
	return err
}

// count is the number of records carrying skey at time at, from the
// index alone.
func count(t *testing.T, ix *core.Tree, skey record.Key, at record.Timestamp) int {
	t.Helper()
	pks, err := LookupAsOf(ix, skey, at)
	if err != nil {
		t.Fatal(err)
	}
	return len(pks)
}

// entryHistory returns the times at which pkey acquired (true) or lost
// (false) skey, oldest first: the history of their composite key.
func entryHistory(t *testing.T, ix *core.Tree, skey, pkey record.Key) ([]record.Timestamp, []bool) {
	t.Helper()
	ck, err := composite(skey, pkey)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := ix.History(ck)
	if err != nil {
		t.Fatal(err)
	}
	var times []record.Timestamp
	var acquired []bool
	for _, v := range vs {
		times = append(times, v.Time)
		acquired = append(acquired, !v.Tombstone)
	}
	return times, acquired
}

func TestLookupAndCount(t *testing.T) {
	ix := newIndex(t)
	// emp1 and emp2 join "sales" at t=1,2; emp3 joins "eng" at t=3.
	if err := apply(ix, 1, k("emp1"), nil, false, k("sales"), false); err != nil {
		t.Fatal(err)
	}
	if err := apply(ix, 2, k("emp2"), nil, false, k("sales"), false); err != nil {
		t.Fatal(err)
	}
	if err := apply(ix, 3, k("emp3"), nil, false, k("eng"), false); err != nil {
		t.Fatal(err)
	}
	pks, err := LookupAsOf(ix, k("sales"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pks) != 2 || !pks[0].Equal(k("emp1")) || !pks[1].Equal(k("emp2")) {
		t.Fatalf("sales@3 = %v", pks)
	}
	if n := count(t, ix, k("sales"), 1); n != 1 {
		t.Errorf("sales@1 count = %d, want 1", n)
	}
	if n := count(t, ix, k("eng"), 2); n != 0 {
		t.Errorf("eng@2 count = %d, want 0", n)
	}
	if n := count(t, ix, k("eng"), 3); n != 1 {
		t.Errorf("eng@3 count = %d, want 1", n)
	}
}

func TestSecondaryKeyChange(t *testing.T) {
	ix := newIndex(t)
	apply(ix, 1, k("emp1"), nil, false, k("sales"), false)
	// emp1 moves from sales to eng at t=5.
	if err := apply(ix, 5, k("emp1"), k("sales"), true, k("eng"), false); err != nil {
		t.Fatal(err)
	}
	if n := count(t, ix, k("sales"), 4); n != 1 {
		t.Error("emp1 should be in sales before the move")
	}
	if n := count(t, ix, k("sales"), 5); n != 0 {
		t.Error("emp1 should have left sales at t=5")
	}
	if n := count(t, ix, k("eng"), 5); n != 1 {
		t.Error("emp1 should be in eng from t=5")
	}
	times, acq := entryHistory(t, ix, k("sales"), k("emp1"))
	if len(times) != 2 || times[0] != 1 || times[1] != 5 || !acq[0] || acq[1] {
		t.Errorf("history of (sales,emp1) = %v %v", times, acq)
	}
}

func TestUnchangedSecondaryKeyPostsNothing(t *testing.T) {
	ix := newIndex(t)
	apply(ix, 1, k("emp1"), nil, false, k("sales"), false)
	// Value update that keeps the secondary field: no index churn.
	if err := apply(ix, 2, k("emp1"), k("sales"), true, k("sales"), false); err != nil {
		t.Fatal(err)
	}
	times, _ := entryHistory(t, ix, k("sales"), k("emp1"))
	if len(times) != 1 {
		t.Fatalf("unchanged skey should post nothing, history = %v", times)
	}
}

func TestRecordRemoval(t *testing.T) {
	ix := newIndex(t)
	apply(ix, 1, k("emp1"), nil, false, k("sales"), false)
	if err := apply(ix, 4, k("emp1"), k("sales"), true, nil, true); err != nil {
		t.Fatal(err)
	}
	if n := count(t, ix, k("sales"), 4); n != 0 {
		t.Error("deleted record should leave the index as of the delete time")
	}
	if n := count(t, ix, k("sales"), 3); n != 1 {
		t.Error("deleted record should remain visible in the past")
	}
}

func TestPrefixSafety(t *testing.T) {
	ix := newIndex(t)
	// "a" and "ab" must not contaminate each other's lookups even though
	// one is a prefix of the other.
	apply(ix, 1, k("p1"), nil, false, k("a"), false)
	apply(ix, 2, k("p2"), nil, false, k("ab"), false)
	if n := count(t, ix, k("a"), 5); n != 1 {
		t.Errorf("lookup of 'a' = %d, want 1", n)
	}
	if n := count(t, ix, k("ab"), 5); n != 1 {
		t.Errorf("lookup of 'ab' = %d, want 1", n)
	}
}

func TestNULSecondaryKeyRejected(t *testing.T) {
	ix := newIndex(t)
	if err := apply(ix, 1, k("p"), nil, false, record.Key{0x61, 0x00, 0x62}, false); err == nil {
		t.Error("NUL in secondary key should be rejected")
	}
	if _, err := LookupAsOf(ix, record.Key{0x00}, 1); err == nil {
		t.Error("NUL in lookup key should be rejected")
	}
}

func TestManyEntriesSplitAndStayQueryable(t *testing.T) {
	ix := newIndex(t)
	ts := record.Timestamp(0)
	// 30 departments x 20 employees, with everyone moving once.
	for d := 0; d < 30; d++ {
		for e := 0; e < 20; e++ {
			ts++
			dep := k(fmt.Sprintf("dept%02d", d))
			emp := k(fmt.Sprintf("emp%03d", d*20+e))
			if err := apply(ix, ts, emp, nil, false, dep, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	joinEnd := ts
	for i := 0; i < 200; i++ {
		ts++
		emp := k(fmt.Sprintf("emp%03d", i))
		oldDep := k(fmt.Sprintf("dept%02d", i/20))
		if err := apply(ix, ts, emp, oldDep, true, k("dept99"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := count(t, ix, k("dept00"), joinEnd); n != 20 {
		t.Errorf("dept00 at join end = %d, want 20", n)
	}
	if n := count(t, ix, k("dept00"), ts); n != 0 {
		t.Errorf("dept00 after moves = %d, want 0", n)
	}
	if n := count(t, ix, k("dept99"), ts); n != 200 {
		t.Errorf("dept99 after moves = %d, want 200", n)
	}
}
