package db

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

func open(t *testing.T, cfg Config) *DB {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func put(t *testing.T, d *DB, key, val string) {
	t.Helper()
	err := d.Update(func(tx *txn.Txn) error {
		return tx.Put(record.StringKey(key), []byte(val))
	})
	if err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

// window returns the versions of keys in [low, high) valid at any moment
// in [from, to), sorted by (key, time): a window cursor, drained. An empty
// window holds nothing (and From = To = 0 would mean "no window").
func window(d *DB, low record.Key, high record.Bound, from, to record.Timestamp) ([]record.Version, error) {
	if to <= from {
		return nil, nil
	}
	return d.Cursor(low, high, ScanOptions{From: from, To: to}).Collect()
}

// fullHistory is every committed version of every key: the window over
// all of time.
func fullHistory(d *DB) ([]record.Version, error) {
	return window(d, nil, record.InfiniteBound(), record.TimeZero+1, record.TimeInfinity)
}

// diffRows drains the query layer's diff of [low, high) between times
// from and to: one row per key whose visible state differs, in key order.
func diffRows(d *DB, low record.Key, high record.Bound, from, to record.Timestamp) ([]query.Row, error) {
	op, err := d.QueryAt(d.Now(), query.Diff(low, high, from, to))
	if err != nil {
		return nil, err
	}
	defer op.Close()
	var rows []query.Row
	for op.Next() {
		rows = append(rows, op.Row())
	}
	return rows, op.Err()
}

// secondaryCount is the number of records carrying skey at time at,
// answered from the secondary index alone.
func secondaryCount(d *DB, name string, skey record.Key, at record.Timestamp) (int, error) {
	pks, err := d.LookupSecondary(name, skey, at)
	return len(pks), err
}

// fetchSecondary resolves a secondary lookup through the primary index
// (§3.6): each primary key carrying skey at time at, read at that time.
func fetchSecondary(d *DB, name string, skey record.Key, at record.Timestamp) ([]record.Version, error) {
	pks, err := d.LookupSecondary(name, skey, at)
	if err != nil {
		return nil, err
	}
	snap := d.ReadAt(at)
	out := make([]record.Version, 0, len(pks))
	for _, pk := range pks {
		v, ok, err := snap.Get(pk)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// deptExtract is the secondary-index extractor the tests share: the
// value's prefix up to '|'.
func deptExtract(v []byte) record.Key {
	i := bytes.IndexByte(v, '|')
	if i < 0 {
		return nil
	}
	return record.Key(v[:i])
}

func TestOpenDefaults(t *testing.T) {
	d := open(t, Config{})
	if d.Now() != 0 {
		t.Errorf("fresh db Now = %v", d.Now())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get(record.StringKey("nope")); ok {
		t.Error("Get on empty db should miss")
	}
}

func TestEndToEndVersioning(t *testing.T) {
	d := open(t, Config{})
	put(t, d, "acct", "100") // t=1
	put(t, d, "acct", "120") // t=2
	put(t, d, "acct", "90")  // t=3

	v, ok, _ := d.Get(record.StringKey("acct"))
	if !ok || string(v.Value) != "90" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	for at, want := range map[uint64]string{1: "100", 2: "120", 3: "90"} {
		v, ok, _ := d.GetAsOf(record.StringKey("acct"), record.Timestamp(at))
		if !ok || string(v.Value) != want {
			t.Errorf("GetAsOf(%d) = %v, %v; want %s", at, v, ok, want)
		}
	}
	h, _ := d.History(record.StringKey("acct"))
	if len(h) != 3 {
		t.Fatalf("History = %v", h)
	}
}

func TestSecondaryIndexEndToEnd(t *testing.T) {
	d := open(t, Config{})
	// Records are "dept|rest"; the secondary key is the dept prefix.
	extract := func(v []byte) record.Key {
		i := bytes.IndexByte(v, '|')
		if i < 0 {
			return nil
		}
		return record.Key(v[:i])
	}
	if err := d.CreateSecondary("dept", extract); err != nil {
		t.Fatal(err)
	}
	put(t, d, "emp1", "sales|alice") // t=1
	put(t, d, "emp2", "sales|bob")   // t=2
	put(t, d, "emp3", "eng|carol")   // t=3
	put(t, d, "emp1", "eng|alice")   // t=4: moves to eng

	if n, _ := secondaryCount(d, "dept", record.StringKey("sales"), 3); n != 2 {
		t.Errorf("sales@3 = %d, want 2", n)
	}
	if n, _ := secondaryCount(d, "dept", record.StringKey("sales"), 4); n != 1 {
		t.Errorf("sales@4 = %d, want 1", n)
	}
	vs, err := fetchSecondary(d, "dept", record.StringKey("eng"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || string(vs[0].Value) != "eng|alice" || string(vs[1].Value) != "eng|carol" {
		t.Fatalf("fetch eng@4 = %v", vs)
	}
	// Delete removes from the index going forward.
	d.Update(func(tx *txn.Txn) error { return tx.Delete(record.StringKey("emp3")) }) // t=5
	if n, _ := secondaryCount(d, "dept", record.StringKey("eng"), 5); n != 1 {
		t.Errorf("eng@5 = %d, want 1", n)
	}
	if n, _ := secondaryCount(d, "dept", record.StringKey("eng"), 4); n != 2 {
		t.Errorf("eng@4 = %d, want 2 (history preserved)", n)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Unknown index errors.
	if _, err := d.LookupSecondary("nope", record.StringKey("x"), 1); err == nil {
		t.Error("unknown index should error")
	}
}

func TestSecondaryCreationRules(t *testing.T) {
	d := open(t, Config{})
	if err := d.CreateSecondary("a", func([]byte) record.Key { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateSecondary("a", func([]byte) record.Key { return nil }); err == nil {
		t.Error("duplicate index should fail")
	}
	put(t, d, "k", "v")
	if err := d.CreateSecondary("b", func([]byte) record.Key { return nil }); err == nil {
		t.Error("creating an index after writes should fail")
	}
}

func TestStatsAggregation(t *testing.T) {
	d := open(t, Config{BufferPages: 8})
	for i := 0; i < 200; i++ {
		put(t, d, fmt.Sprintf("k%03d", i%20), fmt.Sprintf("v%d", i))
	}
	st := d.Stats()
	if st.Txn.Committed != 200 {
		t.Errorf("Committed = %d", st.Txn.Committed)
	}
	if st.Tree.Inserts != 200 {
		t.Errorf("Inserts = %d", st.Tree.Inserts)
	}
	if st.Magnetic.PagesInUse == 0 {
		t.Error("no magnetic pages in use")
	}
	if st.Buffer.Hits+st.Buffer.Misses == 0 {
		t.Error("buffer pool unused")
	}
	mag, worm := d.Devices()
	if mag == nil || worm == nil {
		t.Fatal("Devices returned nil")
	}
	err := d.WithShardTree(0, func(tr *core.Tree) error {
		if tr == nil {
			t.Fatal("WithShardTree passed nil tree")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WithShardTree(99, func(*core.Tree) error { return nil }); err == nil {
		t.Fatal("WithShardTree accepted an out-of-range shard")
	}
}

func TestReadersDoNotBlockOnWriters(t *testing.T) {
	d := open(t, Config{})
	put(t, d, "k", "v1")
	tx := d.Begin()
	if err := tx.Put(record.StringKey("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// With the updater still holding its lock, a reader completes and
	// sees the committed version.
	r := d.ReadOnly()
	v, ok, err := r.Get(record.StringKey("k"))
	if err != nil || !ok || string(v.Value) != "v1" {
		t.Fatalf("reader = %v, %v, %v", v, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestScanAsOfThroughDB(t *testing.T) {
	d := open(t, Config{})
	for i := 0; i < 10; i++ {
		put(t, d, fmt.Sprintf("k%d", i), "old")
	}
	mid := d.Now()
	for i := 0; i < 10; i++ {
		put(t, d, fmt.Sprintf("k%d", i), "new")
	}
	vs, err := d.ReadAt(mid).Scan(nil, record.InfiniteBound())
	if err != nil || len(vs) != 10 {
		t.Fatalf("snapshot scan = %d versions, %v", len(vs), err)
	}
	for _, v := range vs {
		if string(v.Value) != "old" {
			t.Errorf("snapshot contains %s", v)
		}
	}
}
