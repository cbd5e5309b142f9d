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
// *structure* (nodes split and migrate in place); logical record locking
// is the transaction manager's job. Readers of disjoint shards never
// contend, and readers of the same shard share the latch.
type shard struct {
	mu   sync.RWMutex //tsb:latch level=5 name=shard
	tree *core.Tree

	// Latch contention instruments for the hot operations (Insert,
	// CommitKey, Get, GetAsOf): wait is acquire latency, hold is the
	// latched section. Timing is sampled — every latchSampleInterval-th
	// acquisition per shard pays the clock reads, the rest pay one
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

// sampleLatch reports whether this acquisition is one of the timed
// 1-in-8. The tick is Fibonacci-hashed before the bit test: a plain
// tick%8 stride aliases with periodic op patterns (a put ticks the
// counter a fixed number of times, so every sample can land on the
// same acquisition site — in practice the read latch, leaving the
// write-latch histograms permanently empty). Multiplying by the odd
// constant is a bijection, so the rate stays exactly 1-in-8 while the
// sampled positions scatter across any small period.
func (sh *shard) sampleLatch() bool {
	return sh.tick.Add(1)*0x9E3779B97F4A7C15>>latchSampleShift == 0
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

func (s *shardedStore) Insert(v record.Version) error {
	sh := s.shardFor(v.Key)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.Lock()
	if timed {
		acquired = time.Now()
	}
	//tsb:allow latchio -- §3.4 node-at-a-time migration: a time split burns its historical half under the write latch, by design
	err := sh.tree.Insert(v)
	sh.mu.Unlock()
	if timed {
		sh.waitW.Observe(acquired.Sub(start))
		sh.holdW.Observe(time.Since(acquired))
	}
	return err
}

func (s *shardedStore) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) error {
	sh := s.shardFor(k)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.Lock()
	if timed {
		acquired = time.Now()
	}
	err := sh.tree.CommitKey(k, txnID, commitTime)
	sh.mu.Unlock()
	if timed {
		sh.waitW.Observe(acquired.Sub(start))
		sh.holdW.Observe(time.Since(acquired))
	}
	return err
}

func (s *shardedStore) AbortKey(k record.Key, txnID uint64) error {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tree.AbortKey(k, txnID)
}

func (s *shardedStore) GetPending(k record.Key, txnID uint64) (record.Version, bool, error) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.GetPending(k, txnID)
}

func (s *shardedStore) Get(k record.Key) (record.Version, bool, error) {
	sh := s.shardFor(k)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.RLock()
	if timed {
		acquired = time.Now()
	}
	v, ok, err := sh.tree.Get(k)
	sh.mu.RUnlock()
	if timed {
		sh.waitR.Observe(acquired.Sub(start))
		sh.holdR.Observe(time.Since(acquired))
	}
	return v, ok, err
}

func (s *shardedStore) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	sh := s.shardFor(k)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.RLock()
	if timed {
		acquired = time.Now()
	}
	v, ok, err := sh.tree.GetAsOf(k, at)
	sh.mu.RUnlock()
	if timed {
		sh.waitR.Observe(acquired.Sub(start))
		sh.holdR.Observe(time.Since(acquired))
	}
	return v, ok, err
}

func (s *shardedStore) History(k record.Key) ([]record.Version, error) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.History(k)
}

// ScanPageAsOf streams one latch-scoped batch of the snapshot at time
// at: the shard-order concatenating merge cursor of the sharded engine
// (reverse shard order when reverse is set). It read-latches exactly one
// shard at a time, only for the duration of that shard tree's leaf-page
// call, releasing it before touching the next shard — the incremental
// latch hand-off that lets a cursor pause indefinitely between pages
// without blocking writers. Because the key space is range-partitioned
// in shard order, pages concatenate in key order with no interleaving.
func (s *shardedStore) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error) {
	n := len(s.shards)
	if reverse {
		i := n - 1
		if !high.IsInfinite() {
			i = record.ShardOfKey(high.Key(), n)
		}
		first := record.ShardOfKey(low, n)
		hi := high
		for {
			shLow, _ := record.ShardRange(i, n)
			clampLow := low
			if low.Compare(shLow) < 0 {
				clampLow = shLow
			}
			// A resumed reverse scan arrives with hi at this shard's
			// low boundary: the window inside the shard is empty, so
			// step down without a latched descent.
			if !hi.IsInfinite() && hi.CompareKey(clampLow) <= 0 {
				if i <= first {
					return core.Page{}, nil
				}
				i--
				hi = record.KeyBound(shLow)
				continue
			}
			sh := s.shards[i]
			sh.mu.RLock()
			page, err := sh.tree.ScanPageAsOf(at, clampLow, hi, true)
			sh.mu.RUnlock()
			if err != nil {
				return core.Page{}, fmt.Errorf("db: shard %d: %w", i, err)
			}
			if page.More || i <= first {
				return page, nil
			}
			// This shard is exhausted: hand the window's high edge down
			// to the next shard's upper boundary.
			i--
			next := record.KeyBound(shLow)
			if len(page.Versions) > 0 {
				page.NextHigh = next
				page.More = true
				return page, nil
			}
			hi = next
		}
	}
	i := record.ShardOfKey(low, n)
	last := n - 1
	if !high.IsInfinite() {
		last = record.ShardOfKey(high.Key(), n)
	}
	lo := low
	for {
		_, shHigh := record.ShardRange(i, n)
		clampHigh := high
		if shHigh.Compare(high) < 0 {
			clampHigh = shHigh
		}
		sh := s.shards[i]
		sh.mu.RLock()
		page, err := sh.tree.ScanPageAsOf(at, lo, clampHigh, false)
		sh.mu.RUnlock()
		if err != nil {
			return core.Page{}, fmt.Errorf("db: shard %d: %w", i, err)
		}
		if page.More || i >= last {
			return page, nil
		}
		// This shard is exhausted: resume at the next shard's boundary.
		i++
		next := record.ShardBoundary(i, n)
		if len(page.Versions) > 0 {
			page.NextLow = next
			page.More = true
			return page, nil
		}
		lo = next
	}
}

// ScanRangePage streams one latch-scoped, key-paged batch of a temporal
// range query — the window-mode twin of ScanPageAsOf. It read-latches
// exactly one shard at a time, for the duration of one ScanRangePage call
// on that shard's tree, and hands the window off across shard boundaries
// through the page's NextLow: a window cursor pausing between pages
// blocks no writer on any shard. Shard order equals key order, so pages
// concatenate in ScanRange's (key, time) order with no interleaving.
func (s *shardedStore) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp) (core.Page, error) {
	n := len(s.shards)
	i := record.ShardOfKey(low, n)
	last := n - 1
	if !high.IsInfinite() {
		last = record.ShardOfKey(high.Key(), n)
	}
	lo := low
	for {
		_, shHigh := record.ShardRange(i, n)
		clampHigh := high
		if shHigh.Compare(high) < 0 {
			clampHigh = shHigh
		}
		sh := s.shards[i]
		sh.mu.RLock()
		page, err := sh.tree.ScanRangePage(lo, clampHigh, from, to)
		sh.mu.RUnlock()
		if err != nil {
			return core.Page{}, fmt.Errorf("db: shard %d: %w", i, err)
		}
		if page.More || i >= last {
			return page, nil
		}
		// This shard is exhausted: resume at the next shard's boundary.
		i++
		next := record.ShardBoundary(i, n)
		if len(page.Versions) > 0 {
			page.NextLow = next
			page.More = true
			return page, nil
		}
		lo = next
	}
}

// registerMetrics names each shard's latch-contention histograms in r,
// one (shard, mode) series pair per histogram.
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
