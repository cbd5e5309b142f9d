package db

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/txn"
)

func TestScanRangeThroughDB(t *testing.T) {
	d := open(t, Config{})
	put(t, d, "a", "a1") // t=1
	put(t, d, "b", "b1") // t=2
	put(t, d, "a", "a2") // t=3
	put(t, d, "c", "c1") // t=4

	vs, err := window(d, nil, record.InfiniteBound(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Window [2,4): a1 alive at 2, b1 at 2, a2 at 3. c1 is outside.
	want := []string{"a1", "a2", "b1"}
	if len(vs) != len(want) {
		t.Fatalf("window = %v", vs)
	}
	for i, w := range want {
		if string(vs[i].Value) != w {
			t.Errorf("window[%d] = %s, want %s", i, vs[i], w)
		}
	}
}

func TestDiffThroughDB(t *testing.T) {
	d := open(t, Config{})
	put(t, d, "stay", "same") // t=1
	put(t, d, "mod", "old")   // t=2
	mark := d.Now()
	put(t, d, "mod", "new")                                                          // t=3
	put(t, d, "add", "x")                                                            // t=4
	d.Update(func(tx *txn.Txn) error { return tx.Delete(record.StringKey("stay")) }) // t=5

	rows, err := diffRows(d, nil, record.InfiniteBound(), mark, d.Now())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, r := range rows {
		kinds[string(r.Key)] = core.Change{HasBefor: r.HasBefore, HasAfter: r.HasAfter}.Kind()
	}
	want := map[string]string{"mod": "updated", "add": "created", "stay": "deleted"}
	if len(kinds) != len(want) {
		t.Fatalf("Diff = %v, want %v", kinds, want)
	}
	for k, v := range want {
		if kinds[k] != v {
			t.Errorf("Diff[%s] = %s, want %s", k, kinds[k], v)
		}
	}
}

func TestCursorThroughDB(t *testing.T) {
	d := open(t, Config{})
	for i := 0; i < 50; i++ {
		put(t, d, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	cur := d.Cursor(record.StringKey("k10"), record.KeyBound(record.StringKey("k20")), ScanOptions{})
	n := 0
	var prev record.Key
	for cur.Next() {
		v := cur.Version()
		if prev != nil && !prev.Less(v.Key) {
			t.Fatal("cursor out of order")
		}
		prev = v.Key
		n++
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if n != 10 {
		t.Fatalf("cursor yielded %d keys, want 10", n)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAtInfinityIsLatest: through the facade, a point read and a
// cursor at TimeInfinity see the latest committed state of a tree too
// tall for its root to be a leaf.
func TestReadAtInfinityIsLatest(t *testing.T) {
	d := open(t, Config{Shards: 1, LeafCapacity: 256, IndexCapacity: 512, MaxKeySize: 16, MaxValueSize: 16})
	const keys = 40
	for i := 0; d.Stats().Tree.Height < 3; i++ {
		put(t, d, fmt.Sprintf("k%02d", i%keys), fmt.Sprintf("v%d", i))
	}
	k := record.StringKey("k07")
	want, ok, err := d.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get(%s) = %v, %v", k, ok, err)
	}
	if got, ok, err := d.GetAsOf(k, record.TimeInfinity); err != nil || !ok || got.Time != want.Time {
		t.Fatalf("GetAsOf(%s, TimeInfinity) = %v,%v,%v; Get = %v", k, got, ok, err, want)
	}
	vs, err := d.ReadAt(record.TimeInfinity).Cursor(nil, record.InfiniteBound(), ScanOptions{}).Collect()
	if err != nil || len(vs) != keys {
		t.Fatalf("ReadAt(TimeInfinity).Cursor = %d versions, %v; want %d", len(vs), err, keys)
	}
}
