// Quickstart: open a durable multiversion database, write through
// transactions, and run the query kinds the TSB-tree supports — current
// lookup, as-of (rollback) lookup, paginated snapshot cursors, a
// composed filter→join→aggregate operator query, and full version
// history — then reopen the directory to show that everything
// committed survives a restart (committed = logged + fsynced).
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

func main() {
	// A durable database lives in a directory: the two storage devices
	// are files there — pages.dev (the erasable magnetic disk,
	// CRC-guarded pages) and worm.dev (the write-once disk, append-only
	// sectors) — beside the write-ahead log and a small checkpoint, and
	// opening the same directory later recovers every acknowledged
	// commit. A checkpoint flushes the dirty pages, not the database.
	// (Leave Dir empty for a purely in-memory database on simulated
	// devices.)
	dir, err := os.MkdirTemp("", "tsb-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	d, err := db.Open(db.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}

	// Committed transactions stamp their writes with a commit time.
	for i, val := range []string{"v1", "v2", "v3"} {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("greeting"), []byte(val))
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed %s (commit time %v)\n", val, d.Now())
		_ = i
	}

	// Current lookup.
	v, ok, err := d.Get(record.StringKey("greeting"))
	if err != nil || !ok {
		log.Fatalf("get: %v %v", ok, err)
	}
	fmt.Printf("current value: %s\n", v.Value)

	// Rollback: the database as it was at commit time 2.
	v, ok, err = d.GetAsOf(record.StringKey("greeting"), 2)
	if err != nil || !ok {
		log.Fatalf("as-of get: %v %v", ok, err)
	}
	fmt.Printf("value as of t=2: %s\n", v.Value)

	// An aborted transaction leaves no trace: uncommitted data never
	// reaches the historical database and is simply erased.
	tx := d.Begin()
	if err := tx.Put(record.StringKey("greeting"), []byte("oops")); err != nil {
		log.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		log.Fatal(err)
	}

	// Full history (non-deletion policy: every version is retained).
	h, err := d.History(record.StringKey("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("history:")
	for _, v := range h {
		fmt.Printf("  t=%v  %s\n", v.Time, v.Value)
	}

	// A few more keys so pagination has something to page over.
	for i := 0; i < 7; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey(fmt.Sprintf("row%02d", i)), []byte(fmt.Sprintf("payload%d", i)))
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Paginated snapshot read through a lock-free read-only transaction:
	// the cursor streams the snapshot lazily — each page is a bounded
	// amount of work no matter how large the database is, and no latch
	// is held between Next calls. ScanOptions.After resumes each page
	// strictly after the last key of the previous one.
	snap := d.ReadOnly()
	fmt.Printf("snapshot at t=%v, three keys per page:\n", snap.Timestamp())
	const pageSize = 3
	var after record.Key
	for page := 1; ; page++ {
		n := 0
		cur := snap.Cursor(nil, record.InfiniteBound(), db.ScanOptions{After: after, Limit: pageSize})
		for cur.Next() {
			v := cur.Version()
			fmt.Printf("  page %d: %s = %s\n", page, v.Key, v.Value)
			after = v.Key.Clone()
			n++
		}
		if cur.Err() != nil {
			log.Fatal(cur.Err())
		}
		if n < pageSize {
			break
		}
	}

	// A composed temporal query: filter → join → aggregate, streamed by
	// the query engine (internal/query). The filter's key range is
	// pushed down into the scan window, so leaf pages outside it are
	// never fetched; the join merges the current snapshot with the
	// all-of-time window of the same keys; GroupBy folds each key's
	// stream into one row carrying its version count.
	spec := query.Scan(nil, record.InfiniteBound()).
		Filter(record.StringKey("row00"), record.KeyBound(record.StringKey("row99"))).
		Join(query.Window(nil, record.InfiniteBound(), 1, record.TimeInfinity)).
		GroupBy()
	qop, err := d.Query(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("filter -> join -> group-by (versions per row* key):")
	for qop.Next() {
		r := qop.Row()
		fmt.Printf("  %s: %d versions\n", r.Key, r.Count)
	}
	if err := qop.Err(); err != nil {
		log.Fatal(err)
	}
	if err := qop.Close(); err != nil {
		log.Fatal(err)
	}

	// The same snapshot in reverse, iterator form, stopping early: a
	// "latest two rows" query that costs two leaf reads, not a scan.
	fmt.Println("last two keys, reverse iterator:")
	for v, err := range snap.Range(nil, record.InfiniteBound(), db.ScanOptions{Reverse: true, Limit: 2}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s = %s\n", v.Key, v.Value)
	}

	// The two-tier device accounting (the paper's SpaceM / SpaceO) and
	// the dirty-page table are visible in Stats.
	dev := d.Stats().Device
	fmt.Printf("devices: %d B magnetic (SpaceM), %d B burned (SpaceO, %.0f%% payload), %d dirty page(s)\n",
		dev.SpaceM, dev.SpaceO, dev.Utilization*100, dev.DirtyPages)

	// "Restart": close the database and recover it from the directory.
	// Every acknowledged commit — including its full version history —
	// survives. Reopening a paged directory reattaches the device files
	// at the last checkpoint boundary (verifying CRCs, clipping any
	// torn WORM tail) and replays only the WAL tail on top; the
	// crashed-mid-commit and crashed-mid-checkpoint cases are covered
	// by the WAL's torn-tail recovery and the page file's rollback
	// journal (see the db package docs).
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
	d2, err := db.Open(db.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer d2.Close()
	h, err = d2.History(record.StringKey("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reopen: clock=%v, greeting has %d versions, latest %q\n",
		d2.Now(), len(h), h[len(h)-1].Value)
}
