package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/txn"
)

// spreadKey mirrors workload.SpreadKey: binary keys whose high-order
// bytes are uniform, so every shard count receives traffic.
func spreadKey(i uint64) record.Key {
	return record.Uint64Key(i * 0x9e3779b97f4a7c15)
}

// sameVersions asserts two version slices are byte-identical: same
// length, and per element same key bytes, timestamp, tombstone flag, and
// value bytes.
func cursorSameVersions(t *testing.T, label string, got, want []record.Version) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Key.Equal(w.Key) || g.Time != w.Time || g.Tombstone != w.Tombstone || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, g, w)
		}
	}
}

func reversed(vs []record.Version) []record.Version {
	out := make([]record.Version, len(vs))
	for i, v := range vs {
		out[len(vs)-1-i] = v
	}
	return out
}

// coreOracle runs scan — one of core.Tree's recursive, materializing
// reference scans, which no cursor goes through — on every shard tree
// and concatenates the results in shard order, which is key order.
func coreOracle(t *testing.T, d *DB, scan func(*core.Tree) ([]record.Version, error)) []record.Version {
	t.Helper()
	var out []record.Version
	for i := 0; i < d.Shards(); i++ {
		err := d.WithShardTree(i, func(tr *core.Tree) error {
			vs, err := scan(tr)
			out = append(out, vs...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCursorEquivalenceProperty is the multi-shard equivalence property
// test of the streaming read API: forward, reverse, limited, and
// windowed cursors must be byte-identical to core's materializing scans
// under every shard count.
func TestCursorEquivalenceProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)*97 + 5))
			d := open(t, Config{Shards: shards, LeafCapacity: 512})
			const keySpace = 80
			for op := 0; op < 500; op++ {
				k := spreadKey(uint64(rng.Intn(keySpace)))
				err := d.Update(func(tx *txn.Txn) error {
					if rng.Intn(9) == 0 {
						return tx.Delete(k)
					}
					return tx.Put(k, []byte(fmt.Sprintf("v%d", op)))
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			now := int(d.Now())
			for trial := 0; trial < 40; trial++ {
				at := record.Timestamp(1 + rng.Intn(now))
				var low record.Key
				high := record.InfiniteBound()
				if trial%3 != 0 {
					low = spreadKey(uint64(rng.Intn(keySpace)))
					high = record.KeyBound(spreadKey(uint64(rng.Intn(keySpace))))
				}

				want := coreOracle(t, d, func(tr *core.Tree) ([]record.Version, error) {
					return tr.ScanAsOf(at, low, high)
				})

				r := d.ReadAt(at)
				got, err := r.Cursor(low, high, ScanOptions{}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "forward", got, want)

				gotRev, err := r.Cursor(low, high, ScanOptions{Reverse: true}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "reverse", gotRev, reversed(want))

				limit := rng.Intn(len(want) + 2)
				gotLim, err := r.Cursor(low, high, ScanOptions{Limit: limit}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				wantLim := want
				if limit > 0 && limit < len(want) {
					wantLim = want[:limit]
				}
				if limit > 0 {
					cursorSameVersions(t, "limit", gotLim, wantLim)
				}

				// The slice form is a wrapper over the same cursor; it
				// must agree with the oracle too.
				slice, err := r.Scan(low, high)
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "slice-scan", slice, want)

				// Window mode: leaf-paged cursors against the per-shard
				// materializing oracle. From starts at 1: From=To=0 is
				// the "no window" sentinel, not a window.
				from := record.Timestamp(1 + rng.Intn(now))
				to := from + record.Timestamp(rng.Intn(now))
				wantWin := coreOracle(t, d, func(tr *core.Tree) ([]record.Version, error) {
					return tr.ScanRange(low, high, from, to)
				})
				gotWin, err := d.Cursor(low, high, ScanOptions{From: from, To: to}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "window", gotWin, wantWin)
				gotWinRev, err := d.Cursor(low, high, ScanOptions{From: from, To: to, Reverse: true}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "window-reverse", gotWinRev, reversed(wantWin))

				// A reverse window drains the forward pages and yields
				// them back to front; Limit must cut that sequence, not
				// the forward one.
				if winLimit := 1 + rng.Intn(len(wantWin)+1); winLimit < len(wantWin) {
					gotWinRevLim, err := d.Cursor(low, high, ScanOptions{From: from, To: to, Reverse: true, Limit: winLimit}).Collect()
					if err != nil {
						t.Fatal(err)
					}
					cursorSameVersions(t, "window-reverse-limit", gotWinRevLim, reversed(wantWin)[:winLimit])
				}
			}
			checkCursorsUnderWriter(t, d, rng, keySpace)
		})
	}
}

// checkCursorsUnderWriter is TestCursorEquivalenceProperty's writer
// input: a goroutine commits fresh keys into every scanned shard while
// forward, reverse and window cursors drain, and each drain waits for a
// commit after every Next, so resumed pages read shards split since the
// page before. The snapshots read at or before the clock at the start
// and the windows end by then, so the writer changes none of them.
// Under -race a page's Resume that skipped the shard latch is a data
// race with the writer.
func checkCursorsUnderWriter(t *testing.T, d *DB, rng *rand.Rand, keySpace int) {
	t.Helper()
	now := int(d.Now())
	before := d.Stats().Tree
	var commits atomic.Uint64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := uint64(keySpace); ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			err := d.Update(func(tx *txn.Txn) error {
				return tx.Put(spreadKey(i), []byte(fmt.Sprintf("w%d", i)))
			})
			if err != nil {
				done <- err
				return
			}
			commits.Add(1)
		}
	}()
	drain := func(c *txn.Cursor) []record.Version {
		var out []record.Version
		for c.Next() {
			out = append(out, c.Version())
			for n := commits.Load(); commits.Load() == n; {
				runtime.Gosched()
			}
		}
		if err := c.Err(); err != nil {
			t.Error(err)
		}
		return out
	}
	for trial := 0; trial < 4; trial++ {
		at := record.Timestamp(1 + rng.Intn(now))
		var low record.Key
		high := record.InfiniteBound()
		if trial%2 != 0 {
			low = spreadKey(uint64(rng.Intn(keySpace)))
			high = record.KeyBound(spreadKey(uint64(rng.Intn(keySpace))))
		}
		from := record.Timestamp(1 + rng.Intn(now))
		to := min(from+record.Timestamp(rng.Intn(now)), record.Timestamp(now+1))
		want := coreOracle(t, d, func(tr *core.Tree) ([]record.Version, error) {
			return tr.ScanAsOf(at, low, high)
		})
		wantWin := coreOracle(t, d, func(tr *core.Tree) ([]record.Version, error) {
			return tr.ScanRange(low, high, from, to)
		})
		r := d.ReadAt(at)
		cursorSameVersions(t, "writer/forward", drain(r.Cursor(low, high, ScanOptions{})), want)
		cursorSameVersions(t, "writer/reverse", drain(r.Cursor(low, high, ScanOptions{Reverse: true})), reversed(want))
		cursorSameVersions(t, "writer/window", drain(d.Cursor(low, high, ScanOptions{From: from, To: to})), wantWin)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if after := d.Stats().Tree; after.LeafKeySplits == before.LeafKeySplits {
		t.Fatalf("the writer split no leaf: %+v", after)
	}
}

// TestPageResumeTakesShardLatch pins the router's half of the Store
// contract: every page's Resume, within a shard and across a shard
// hand-off, reads under a shard latch. With every shard write-latched, a
// Resume must block until the latches are released. (The race detector
// cannot see an unlatched Resume: the buffer pool's mutex orders every
// page read after the writes it could race with.)
func TestPageResumeTakesShardLatch(t *testing.T) {
	const shards = 3
	d := open(t, Config{Shards: shards, LeafCapacity: 512})
	for i := 0; i < 120; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i)), []byte(fmt.Sprintf("v%d", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	now := d.Now()
	for _, first := range []struct {
		name string
		read func() (core.Page, error)
	}{
		{"forward", func() (core.Page, error) { return d.store.ScanPageAsOf(now, nil, record.InfiniteBound(), false) }},
		{"reverse", func() (core.Page, error) { return d.store.ScanPageAsOf(now, nil, record.InfiniteBound(), true) }},
		{"window", func() (core.Page, error) { return d.store.ScanRangePage(nil, record.InfiniteBound(), 1, now+1) }},
	} {
		n := 0
		p, err := first.read()
		for ; err == nil && p.Resume != nil; n++ {
			for _, sh := range d.store.shards {
				sh.mu.Lock()
			}
			type result struct {
				p   core.Page
				err error
			}
			done := make(chan result, 1)
			go func(resume func() (core.Page, error)) {
				p, err := resume()
				done <- result{p, err}
			}(p.Resume)
			select {
			case <-done:
				t.Fatalf("%s: page %d's Resume ran while every shard was write-latched", first.name, n)
			case <-time.After(20 * time.Millisecond):
			}
			for _, sh := range d.store.shards {
				sh.mu.Unlock()
			}
			r := <-done
			p, err = r.p, r.err
		}
		if err != nil {
			t.Fatal(err)
		}
		if n < shards {
			t.Fatalf("%s: %d resumed pages, want at least one per shard", first.name, n)
		}
	}
}

// TestAbandonedCursorDoesNotBlockWriters verifies the latch contract:
// a cursor abandoned mid-iteration (without Close) holds no shard latch,
// so writers on every shard proceed immediately.
func TestAbandonedCursorDoesNotBlockWriters(t *testing.T) {
	const shards = 4
	d := open(t, Config{Shards: shards})
	for i := 0; i < 64; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i)), []byte("seed"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	c := d.Cursor(nil, record.InfiniteBound(), ScanOptions{})
	if !c.Next() {
		t.Fatalf("cursor empty: %v", c.Err())
	}
	// c is now mid-iteration and deliberately neither drained nor
	// closed. Every shard must accept exclusive-latch writes anyway.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 256; i++ {
			err := d.Update(func(tx *txn.Txn) error {
				return tx.Put(spreadKey(uint64(i)), []byte("after"))
			})
			if err != nil {
				done <- err
				return
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
		t.Fatal("writers blocked: an abandoned cursor is holding a shard latch")
	}

	// The abandoned cursor still finishes its snapshot correctly.
	n := 1
	for c.Next() {
		if string(c.Version().Value) != "seed" {
			t.Fatalf("cursor leaked a post-snapshot write: %v", c.Version())
		}
		n++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if n != 64 {
		t.Fatalf("cursor yielded %d versions, want 64", n)
	}
}

// TestCursorLimit1PageReads is the acceptance check for lazy reads: over
// a snapshot of >=100k versions, a Limit=1 cursor performs O(tree-depth)
// page reads — measured at the buffer pool, through which every page
// fetch passes — while the materializing scan reads the whole current
// key space.
func TestCursorLimit1PageReads(t *testing.T) {
	// Small leaves keep the build fast and the tree deep: the point is
	// the O(height) bound, not the leaf fan-out.
	d := open(t, Config{LeafCapacity: 512, IndexCapacity: 1024})
	const (
		keys    = 20_000
		rounds  = 5 // 100k versions total
		perTxn  = 100
		valSize = 8
	)
	val := bytes.Repeat([]byte("x"), valSize)
	for r := 0; r < rounds; r++ {
		for base := 0; base < keys; base += perTxn {
			err := d.Update(func(tx *txn.Txn) error {
				for i := base; i < base+perTxn; i++ {
					if err := tx.Put(spreadKey(uint64(i)), val); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d.Stats().Tree; st.Inserts < 100_000 {
		t.Fatalf("built only %d versions", st.Inserts)
	}

	height := d.Stats().Tree.Height
	if height < 2 {
		t.Fatalf("tree of height %d is too shallow to measure", height)
	}

	pageFetches := func() uint64 {
		st := d.Stats().Buffer
		return st.Hits + st.Misses
	}
	before := pageFetches()
	got, err := d.Cursor(nil, record.InfiniteBound(), ScanOptions{Limit: 1}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Limit=1 cursor yielded %d versions", len(got))
	}
	reads := pageFetches() - before
	if reads > uint64(height)+1 {
		t.Fatalf("Limit=1 cursor read %d pages, want <= tree height %d + 1", reads, height)
	}

	// Contrast: the materializing scan must touch at least one page per
	// current leaf — orders of magnitude more than the cursor.
	before = pageFetches()
	all, err := d.ReadOnly().Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != keys {
		t.Fatalf("full scan = %d keys, want %d", len(all), keys)
	}
	fullReads := pageFetches() - before
	if fullReads < 50*reads {
		t.Fatalf("full scan read %d pages vs cursor %d: the cursor is not lazy", fullReads, reads)
	}
}

// TestBufferPagesContract pins the Config.BufferPages semantics: 0 means
// the 256-page default, and a negative value is refused.
func TestBufferPagesContract(t *testing.T) {
	cached := open(t, Config{}) // BufferPages 0 -> default pool
	put(t, cached, "k", "v")
	for i := 0; i < 10; i++ {
		if _, ok, err := cached.Get(record.StringKey("k")); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}
	if st := cached.Stats().Buffer; st.Hits+st.Misses == 0 {
		t.Fatal("BufferPages=0 must enable the default pool")
	}
	if _, err := Open(Config{BufferPages: -1}); err == nil {
		t.Fatal("negative BufferPages accepted")
	}
}

// TestSecondaryFetchEquivalence checks the §3.6 fetch — the primary keys
// of a secondary lookup, each read from the primary index at the same
// time — against a snapshot scan filtered by the extraction function,
// at a past time and now.
func TestSecondaryFetchEquivalence(t *testing.T) {
	d := open(t, Config{Shards: 2})
	if err := d.CreateSecondary("dept", deptExtract); err != nil {
		t.Fatal(err)
	}
	var mid record.Timestamp
	for i := 0; i < 60; i++ {
		dept := fmt.Sprintf("dept%d", i%3)
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i%40)), []byte(dept+"|payload"))
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 39 {
			mid = d.Now()
		}
	}
	for _, at := range []record.Timestamp{mid, d.Now()} {
		snap := d.ReadAt(at)
		all, err := snap.Scan(nil, record.InfiniteBound())
		if err != nil {
			t.Fatal(err)
		}
		var want []record.Version
		for _, v := range all {
			if deptExtract(v.Value).Equal(record.StringKey("dept1")) {
				want = append(want, v)
			}
		}
		if len(want) == 0 {
			t.Fatalf("no records for dept1 at %d", at)
		}
		pks, err := d.LookupSecondary("dept", record.StringKey("dept1"), at)
		if err != nil {
			t.Fatal(err)
		}
		var got []record.Version
		for _, pk := range pks {
			v, ok, err := snap.Get(pk)
			if err != nil || !ok {
				t.Fatalf("fetch %s at %d: %v %v", pk, at, ok, err)
			}
			got = append(got, v)
		}
		cursorSameVersions(t, fmt.Sprintf("secondary@%d", at), got, want)
	}
}

// TestRangeIteratorThroughDB drives the iter.Seq2 form end to end,
// including early break and pagination resume.
func TestRangeIteratorThroughDB(t *testing.T) {
	d := open(t, Config{Shards: 3})
	for i := 0; i < 30; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i)), []byte(fmt.Sprintf("v%d", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := d.ReadOnly().Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}

	// Paginate: pages of 7, resuming strictly after the last key seen
	// via ScanOptions.After.
	var got []record.Version
	var after record.Key
	snap := d.ReadOnly()
	for {
		n := 0
		for v, err := range snap.Range(nil, record.InfiniteBound(), ScanOptions{After: after, Limit: 7}) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
			after = v.Key.Clone()
			n++
		}
		if n < 7 {
			break
		}
	}
	cursorSameVersions(t, "paginated", got, want)
}
