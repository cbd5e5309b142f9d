package query_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// shardKey builds a key owned by shard i of n.
func shardKey(i, n, j int) record.Key {
	return append(record.ShardBoundary(i, n).Clone(), []byte(fmt.Sprintf("x%04d", j))...)
}

// TestQueryHoldsNoLatchMidStream extends the abandoned-cursor latch
// contract to operator trees: a merge join and a scan across every shard
// paused mid-stream (between Next calls, neither drained nor closed) hold no
// shard latch, so exclusive-latch writers on EVERY shard proceed
// immediately. Afterwards the paused operators resume and still
// observe only their snapshot.
func TestQueryHoldsNoLatchMidStream(t *testing.T) {
	const shards = 4
	d := openTestDB(t, shards)
	defer d.Close()
	for i := 0; i < shards; i++ {
		for j := 0; j < 16; j++ {
			err := d.Update(func(tx *txn.Txn) error {
				return tx.Put(shardKey(i, shards, j), []byte("seed"))
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// A merge join mid-stream: both inputs have filled at least once.
	join, err := d.Query(query.Scan(nil, record.InfiniteBound()).
		Join(query.Scan(nil, record.InfiniteBound())))
	if err != nil {
		t.Fatal(err)
	}
	defer join.Close()
	if !join.Next() {
		t.Fatalf("join empty: %v", join.Err())
	}

	// A scan mid-stream: its cursor has filled its first page.
	scan, err := d.Query(query.Scan(nil, record.InfiniteBound()))
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if !scan.Next() {
		t.Fatalf("scan empty: %v", scan.Err())
	}

	// Both operators now sit between Next calls. Writers must take the
	// exclusive latch of every shard without waiting on them.
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 32; round++ {
			for i := 0; i < shards; i++ {
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(shardKey(i, shards, round), []byte("after"))
				})
				if err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writers blocked: a paused operator is holding a shard latch")
	}

	// The paused operators finish their snapshots untainted.
	joinRows, scanRows := 1, 1
	for join.Next() {
		for _, v := range join.Row().Versions {
			if string(v.Value) != "seed" {
				t.Fatalf("join leaked a post-snapshot write: %v", v)
			}
		}
		joinRows++
	}
	if err := join.Err(); err != nil {
		t.Fatal(err)
	}
	for scan.Next() {
		if string(scan.Row().Versions[0].Value) != "seed" {
			t.Fatalf("scan leaked a post-snapshot write: %v", scan.Row())
		}
		scanRows++
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if want := shards * 16; joinRows != want || scanRows != want {
		t.Fatalf("rows after resume: join=%d scan=%d, want %d", joinRows, scanRows, want)
	}
}
