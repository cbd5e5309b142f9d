package core

import (
	"repro/internal/record"
	"repro/internal/storage"
)

// ScanRange returns every committed version that was valid at some moment
// in the half-open time window [from, to) for keys in [low, high): the
// general temporal range query over the rollback database. The result
// contains, per key, the version alive at `from` (if any) plus every
// version committed inside the window, sorted by (key, time). Tombstones
// are included — a caller reconstructing an interval needs to know when a
// record stopped existing.
//
// Every query class of §2.5 is a key×time rectangle, so this is the one
// whole-tree walk: ScanAsOf, History and Diff are windows of it. The walk
// prunes each index entry whose rectangle, clipped by the path to it,
// misses the window (§3.1; clipping at shared nodes, §3.5 rule 4); the
// clustering the Time-Split Rule's redundancy buys keeps the versions
// valid at the same time in few nodes.
func (t *Tree) ScanRange(low record.Key, high record.Bound, from, to record.Timestamp) ([]record.Version, error) {
	if to <= from {
		return nil, nil
	}
	// clip is the window intersected with the entry rectangles along
	// the path: an entry whose rectangle misses it is pruned, and a
	// shared node reached through it owns only the keys inside it.
	var vs []record.Version
	var visit func(addr storage.Addr, clip record.Rect) error
	visit = func(addr storage.Addr, clip record.Rect) error {
		n, err := t.readNode(addr)
		if err != nil {
			return err
		}
		if !n.leaf {
			for _, e := range n.entries {
				if sub, ok := e.rect.Intersect(clip); ok {
					if err := visit(e.child, sub); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for _, v := range n.versions {
			if v.IsPending() || v.Time >= to || !clip.ContainsKey(v.Key) {
				continue
			}
			// A version older than the window counts only as the one
			// alive at from, and the leaf covering (key, from) holds
			// that one (clause 3 of the Time-Split Rule): older slices
			// are skipped to keep the candidates few.
			if v.Time >= from || clip.Contains(v.Key, from) {
				vs = append(vs, v)
			}
		}
		return nil
	}
	if err := visit(t.root, record.Rect{LowKey: low, HighKey: high, Start: from, End: to}); err != nil {
		return nil, err
	}
	sortVersions(vs)
	// One pass over the sorted candidates: drop the equal neighbours a
	// time split copies, and keep per key only the latest version older
	// than the window — unless it is a tombstone, or a version committed
	// at exactly from supersedes it.
	out := vs[:0]
	for i, v := range vs {
		if i+1 < len(vs) {
			if w := vs[i+1]; w.Key.Equal(v.Key) && (w.Time == v.Time || v.Time < from && w.Time <= from) {
				continue
			}
		}
		if v.Time < from && v.Tombstone {
			continue
		}
		out = append(out, v.Clone())
	}
	return out, nil
}

// ScanRangePage returns the first key-paged batch of the temporal range
// query: the ScanRange result restricted to the keys owned by the single
// current leaf responsible for `low`. Its Resume reads the following
// pages, so the pages enumerate ScanRange(low, high, from, to) exactly
// once, in (key, time) order, with bounded work per call — the
// time-window pushdown that lets a window cursor stream under
// incremental latch hand-offs instead of materializing a whole shard
// part.
//
// Pages are split on the *current* key partition (the slabs alive at
// TimePending partition the key space and are the most finely key-split
// slices of the tree), so one page covers at most one current leaf's
// key range, however many historical versions those keys accumulated.
func (t *Tree) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp) (Page, error) {
	if to <= from {
		return Page{}, nil
	}
	// The page needs only the current leaf's key range, so the edge
	// step stops at the leaf's parent: every leaf lies at depth
	// Height-1 (invariant 8). Were one deeper, the page would cover its
	// parent's keys instead — more work, the same versions.
	_, clip, ok, err := t.edge(record.TimePending, low, high, false, t.stats.Height-1)
	if err != nil {
		return Page{}, err
	}
	if !ok {
		// No current slab covers low (defensive — the current slabs
		// partition the key space): serve the remainder in one piece.
		vs, err := t.ScanRange(low, high, from, to)
		return Page{Versions: vs}, err
	}
	p := Page{}
	pageHigh := high
	if !clip.HighKey.IsInfinite() {
		if next := clip.HighKey.Key(); high.CompareKey(next) > 0 {
			low := next.Clone()
			pageHigh = record.KeyBound(low)
			p.Resume = func() (Page, error) { return t.ScanRangePage(low, high, from, to) }
		}
	}
	vs, err := t.ScanRange(low, pageHigh, from, to)
	if err != nil {
		return Page{}, err
	}
	p.Versions = vs
	return p, nil
}
