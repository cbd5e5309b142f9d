package db

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/txn"
)

// shard is one key-range partition of the database: an independent
// TSB-tree guarded by a reader/writer latch. The latch protects the tree
// *structure* (nodes split and migrate in place) and its write locks: a
// transaction's pending version of a key is its lock on that key (§4),
// so claiming, stamping and erasing one is a write under this latch.
// Readers of disjoint shards never contend, and readers of the same
// shard share the latch.
type shard struct {
	mu   sync.RWMutex //tsb:latch level=5 name=shard
	tree *core.Tree

	// Latch contention instruments for the hot operations (Insert,
	// CommitKey, Get, GetAsOf): wait is acquire latency, hold is the
	// latched section. Timing is sampled — one acquisition in eight
	// per shard pays the clock reads (beginLatch), the rest pay one
	// atomic add — and hold is observed after release, so the metric
	// update itself is latch-free and the common path stays cheap.
	tick         atomic.Uint64
	waitR, waitW obs.Histogram
	holdR, holdW obs.Histogram
}

// latchSampleShift selects the top 3 bits of the hashed tick, sampling
// exactly 1 in 8 acquisitions: enough to keep the wait/hold histograms
// statistically faithful under contention while the clock reads stay
// off seven in eight acquisitions.
const latchSampleShift = 61

// latchTiming is one shard-latch acquisition's sampled timing. The
// latch calls themselves stay at each call site, where internal/lint
// sees what runs under them; this carries only the clock reads.
type latchTiming struct {
	start, got time.Time
	timed      bool
}

// beginLatch is called just before an acquisition; it reads the clock
// only on the timed 1-in-8. The tick is Fibonacci-hashed before the bit
// test: a plain tick%8 stride aliases with periodic op patterns (a put
// ticks the counter a fixed number of times, so every sample can land
// on the same acquisition site — in practice the read latch, leaving
// the write-latch histograms permanently empty). Multiplying by the odd
// constant is a bijection, so the rate stays exactly 1-in-8 while the
// sampled positions scatter across any small period.
func (sh *shard) beginLatch() (lt latchTiming) {
	if sh.tick.Add(1)*0x9E3779B97F4A7C15>>latchSampleShift == 0 {
		lt.start, lt.timed = time.Now(), true
	}
	return lt
}

// held marks the latch acquired.
func (lt *latchTiming) held() {
	if lt.timed {
		lt.got = time.Now()
	}
}

// observe records a timed acquisition's wait and hold. It is called
// after the release, so the metric update itself is latch-free.
func (lt *latchTiming) observe(wait, hold *obs.Histogram) {
	if lt.timed {
		wait.Observe(lt.got.Sub(lt.start))
		hold.Observe(time.Since(lt.got))
	}
}

// shardedStore routes operations across n key-range shards and implements
// txn.Store. Shard i owns the half-open key range
// [record.ShardBoundary(i,n), record.ShardBoundary(i+1,n)), so shard order
// equals key order and the two page iterators hand a scan from one shard
// to the next through the page's resume key — no interleaving is ever
// needed.
type shardedStore struct {
	shards []*shard
}

func newShardedStore(trees []*core.Tree) *shardedStore {
	s := &shardedStore{shards: make([]*shard, len(trees))}
	for i, t := range trees {
		s.shards[i] = &shard{tree: t}
	}
	return s
}

func (s *shardedStore) shardFor(k record.Key) *shard {
	return s.shards[record.ShardOfKey(k, len(s.shards))]
}

// Now returns the largest committed timestamp across all shards.
func (s *shardedStore) Now() record.Timestamp {
	var now record.Timestamp
	for _, sh := range s.shards {
		sh.mu.RLock()
		if t := sh.tree.Now(); t > now {
			now = t
		}
		sh.mu.RUnlock()
	}
	return now
}

//tsb:io -- a time split burns its historical half inline
func (s *shardedStore) Insert(v record.Version) error { return s.shardFor(v.Key).insert(v) }

// insert adds v to the shard's tree under its write latch: the way every
// version enters any tree, a secondary index's (a shard of its own) too.
//
//tsb:io -- a time split burns its historical half inline
func (sh *shard) insert(v record.Version) error {
	lt := sh.beginLatch()
	sh.mu.Lock()
	lt.held()
	//tsb:allow latchio -- §3.4 node-at-a-time migration: a time split burns its historical half under the write latch, by design
	err := sh.tree.Insert(v)
	sh.mu.Unlock()
	lt.observe(&sh.waitW, &sh.holdW)
	return err
}

func (s *shardedStore) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) error {
	sh := s.shardFor(k)
	lt := sh.beginLatch()
	sh.mu.Lock()
	lt.held()
	err := sh.tree.CommitKey(k, txnID, commitTime)
	sh.mu.Unlock()
	lt.observe(&sh.waitW, &sh.holdW)
	return err
}

func (s *shardedStore) AbortKey(k record.Key, txnID uint64) error {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tree.AbortKey(k, txnID)
}

func (s *shardedStore) Get(k record.Key) (record.Version, bool, error) {
	sh := s.shardFor(k)
	lt := sh.beginLatch()
	sh.mu.RLock()
	lt.held()
	v, ok, err := sh.tree.Get(k)
	sh.mu.RUnlock()
	lt.observe(&sh.waitR, &sh.holdR)
	return v, ok, err
}

func (s *shardedStore) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	sh := s.shardFor(k)
	lt := sh.beginLatch()
	sh.mu.RLock()
	lt.held()
	v, ok, err := sh.tree.GetAsOf(k, at)
	sh.mu.RUnlock()
	lt.observe(&sh.waitR, &sh.holdR)
	return v, ok, err
}

func (s *shardedStore) History(k record.Key) ([]record.Version, error) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.History(k)
}

// ScanPageAsOf returns the first page of the snapshot at time at: the
// shard-order concatenating merge cursor of the sharded engine (reverse
// shard order when reverse is set). Because the key space is
// range-partitioned in shard order, pages concatenate in key order with
// no interleaving.
func (s *shardedStore) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error) {
	return s.scan(low, high, reverse, func(t *core.Tree, lo record.Key, hi record.Bound) (core.Page, error) {
		return t.ScanPageAsOf(at, lo, hi, reverse)
	})
}

// ScanRangePage returns the first page of a temporal range query — the
// window-mode twin of ScanPageAsOf, through the same forward shard
// hand-off: pages concatenate in ScanRange's (key, time) order with no
// interleaving.
func (s *shardedStore) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp) (core.Page, error) {
	return s.scan(low, high, false, func(t *core.Tree, lo record.Key, hi record.Bound) (core.Page, error) {
		return t.ScanRangePage(lo, hi, from, to)
	})
}

// scanPages is one scan of [low, high) across the shards, ending at
// shard last and stepping by step (-1 in reverse). open reads the first
// page of the window clamped to one shard from that shard's tree. It
// read-latches one shard at a time, for one page call only, so a cursor
// may pause indefinitely between pages without blocking a writer.
type scanPages struct {
	s          *shardedStore
	low        record.Key
	high       record.Bound
	last, step int
	open       func(*core.Tree, record.Key, record.Bound) (core.Page, error)
}

// scan returns the first page of a scan of [low, high), from the shard
// of low (of high in reverse).
func (s *shardedStore) scan(low record.Key, high record.Bound, reverse bool, open func(*core.Tree, record.Key, record.Bound) (core.Page, error)) (core.Page, error) {
	n := len(s.shards)
	first, last := record.ShardOfKey(low, n), n-1
	if !high.IsInfinite() {
		last = record.ShardOfKey(high.Key(), n)
	}
	sc := &scanPages{s: s, low: low, high: high, last: last, step: 1, open: open}
	if reverse {
		first, sc.last, sc.step = last, first, -1
	}
	return sc.page(first, sc.descend(first))
}

// descend returns the read of shard i's first page: a fresh descent of
// the window clamped to the shard, or an empty page when the clamped
// window is empty.
func (sc *scanPages) descend(i int) func() (core.Page, error) {
	shLow, shHigh := record.ShardRange(i, len(sc.s.shards))
	lo, hi := sc.low, sc.high
	if lo.Compare(shLow) < 0 {
		lo = shLow
	}
	if shHigh.Compare(hi) < 0 {
		hi = shHigh
	}
	if !hi.IsInfinite() && hi.CompareKey(lo) <= 0 {
		return func() (core.Page, error) { return core.Page{}, nil }
	}
	return func() (core.Page, error) { return sc.open(sc.s.shards[i].tree, lo, hi) }
}

// page runs read, one page of shard i, under the shard's read latch and
// wraps the page's Resume the same way, so no latch is held between
// pages. Once shard i is exhausted the scan hands off to the next shard
// with a fresh descent, skipping shards that show nothing.
func (sc *scanPages) page(i int, read func() (core.Page, error)) (core.Page, error) {
	for {
		sh := sc.s.shards[i]
		sh.mu.RLock()
		p, err := read()
		sh.mu.RUnlock()
		if err != nil {
			return core.Page{}, fmt.Errorf("db: shard %d: %w", i, err)
		}
		if p.Resume != nil {
			resume := p.Resume
			p.Resume = func() (core.Page, error) { return sc.page(i, resume) }
			return p, nil
		}
		if (sc.last-i)*sc.step <= 0 {
			return p, nil
		}
		i += sc.step
		read = sc.descend(i)
		if len(p.Versions) > 0 {
			p.Resume = func() (core.Page, error) { return sc.page(i, read) }
			return p, nil
		}
	}
}

// registerMetrics names each shard's latch-contention histograms in r,
// one (shard, mode) series pair per histogram, and its tree's
// node-access counters.
func (s *shardedStore) registerMetrics(r *obs.Registry) {
	for i, sh := range s.shards {
		latch := obs.Label{Key: "latch", Value: "shard"}
		id := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		rd := obs.Label{Key: "mode", Value: "read"}
		wr := obs.Label{Key: "mode", Value: "write"}
		r.RegisterHistogram("tsb_latch_wait_seconds", "shard latch acquire latency (1-in-8 sampled)", &sh.waitR, latch, id, rd)
		r.RegisterHistogram("tsb_latch_wait_seconds", "shard latch acquire latency (1-in-8 sampled)", &sh.waitW, latch, id, wr)
		r.RegisterHistogram("tsb_latch_hold_seconds", "shard latch hold duration (1-in-8 sampled)", &sh.holdR, latch, id, rd)
		r.RegisterHistogram("tsb_latch_hold_seconds", "shard latch hold duration (1-in-8 sampled)", &sh.holdW, latch, id, wr)
		sh.tree.RegisterMetrics(r, id)
	}
}

// splitLatchNanos sums the per-tree split-under-latch time, which lives
// outside core.Stats.
func (s *shardedStore) splitLatchNanos() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.tree.SplitLatchNanos()
		sh.mu.RUnlock()
	}
	return n
}

// stats aggregates the structural counters of every shard tree.
func (s *shardedStore) stats() core.Stats {
	var agg core.Stats
	for _, sh := range s.shards {
		sh.mu.RLock()
		agg = agg.Merge(sh.tree.Stats())
		sh.mu.RUnlock()
	}
	return agg
}

// checkInvariants verifies every shard tree and that every key a shard
// holds routes back to it.
func (s *shardedStore) checkInvariants() error {
	n := len(s.shards)
	for i, sh := range s.shards {
		sh.mu.RLock()
		err := sh.tree.CheckInvariants()
		if err == nil && n > 1 {
			low, high := record.ShardRange(i, n)
			var vs []record.Version
			vs, err = sh.tree.ScanRange(nil, record.InfiniteBound(), record.TimeZero+1, record.TimeInfinity)
			for _, v := range vs {
				if err != nil {
					break
				}
				if v.Key.Less(low) || high.CompareKey(v.Key) <= 0 {
					err = fmt.Errorf("key %s outside shard range [%s,%s)", v.Key, low, high)
				}
			}
		}
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

var _ txn.Store = (*shardedStore)(nil)
