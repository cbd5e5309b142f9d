package core

import (
	"slices"

	"repro/internal/record"
)

// Page is one latch-scoped unit of a streaming snapshot scan: the visible
// versions of a single leaf (deduplicated per key, tombstones dropped),
// plus the window the next page should resume from.
//
// Pages are what make cursors cheap to hand off across latches: a caller
// that latches the tree externally (the db layer's shard router) holds
// the latch only for the duration of one ScanPageAsOf call and resumes
// later from NextLow/NextHigh with no latch held in between. The snapshot
// stays consistent across that gap without any locking because of the
// non-deletion policy: versions visible at a fixed time are immutable —
// later commits carry later timestamps and time splits preserve
// visibility at every past time.
type Page struct {
	// Versions holds the leaf's visible versions in ascending key order
	// (descending when the page was produced with reverse=true).
	Versions []record.Version
	// NextLow is the low key the next page of a forward scan resumes
	// from (meaningful only when More is true).
	NextLow record.Key
	// NextHigh is the high bound the next page of a reverse scan
	// resumes from (meaningful only when More is true).
	NextHigh record.Bound
	// More reports whether the remaining window may hold versions.
	More bool
}

// Advance applies the page's resume contract to a scan window: it
// returns the shrunk (low, high) window for the next page and whether
// the scan is finished. Every pager (the txn cursor, tsbdump's -scan)
// goes through this single copy of the contract.
func (p Page) Advance(low record.Key, high record.Bound, reverse bool) (record.Key, record.Bound, bool) {
	switch {
	case !p.More:
		return low, high, true
	case reverse:
		return low, p.NextHigh, false
	default:
		return p.NextLow, high, false
	}
}

// ScanPageAsOf returns one page of the snapshot of [low, high) at time
// at: the visible versions of the single leaf responsible for the window
// edge (the low edge forward, the high edge in reverse), found by one
// edge descent — O(tree height) node reads per page regardless of
// database size. The page's NextLow/NextHigh shrink the window for the
// following call, so repeated calls enumerate the full snapshot exactly
// once, in order, with strictly decreasing window size.
//
// Because the entries of every index node partition its rectangle, each
// (key, at) point lives in exactly one leaf: pages never overlap and no
// deduplication across pages is needed.
func (t *Tree) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (Page, error) {
	n, clip, err := t.edgeLeaf(at, low, high, reverse)
	if n == nil || err != nil {
		// No slab covers the edge at time at: nothing is visible there.
		return Page{}, err
	}
	p := Page{Versions: visibleInLeaf(n, at, low, high, clip)}
	if reverse {
		slices.Reverse(p.Versions)
		if len(clip.LowKey) > 0 && low.Compare(clip.LowKey) < 0 {
			p.NextHigh = record.KeyBound(clip.LowKey.Clone())
			p.More = true
		}
		return p, nil
	}
	if !clip.HighKey.IsInfinite() {
		next := clip.HighKey.Key()
		if high.CompareKey(next) > 0 {
			p.NextLow = next.Clone()
			p.More = true
		}
	}
	return p, nil
}

// edgeLeaf descends to the leaf holding the edge of the window [low, high)
// at time at — its least keys forward, its greatest in reverse — and
// returns it with the clip of the path to it: the intersection of the
// entry rectangles along the path. A shared historical node owns only
// the keys inside the clip (rule 4 of §3.5 duplicates references,
// clipping each side). At a fixed time the slabs of an index node
// partition its key space and its entries are sorted by (LowKey, Start),
// so the first entry that overlaps the window, scanning from the front
// (from the back in reverse), is the one at the edge. The node is nil
// when no slab overlaps the window at time at.
func (t *Tree) edgeLeaf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (*node, record.Rect, error) {
	at = readTime(at)
	clip := record.WholeSpace()
	n, err := t.readNode(t.root)
	for err == nil && !n.leaf {
		next := -1
		for i := range n.entries {
			if reverse {
				i = len(n.entries) - 1 - i
			}
			s, ok := n.entries[i].rect.Intersect(clip)
			if ok && s.ContainsTime(at) && s.OverlapsKeyRange(low, high) {
				next, clip = i, s
				break
			}
		}
		if next < 0 {
			return nil, clip, nil
		}
		n, err = t.readNode(n.entries[next].child)
	}
	return n, clip, err
}

// visibleInLeaf collects the leaf's versions visible at time at with keys
// in [low, high) restricted to clip, keeping the latest version per key
// and dropping keys whose latest version is a tombstone. Leaf versions
// are stored in (key, time) order, so the result is key-ascending.
func visibleInLeaf(n *node, at record.Timestamp, low record.Key, high record.Bound, clip record.Rect) []record.Version {
	var out []record.Version
	var best record.Version
	have := false
	flush := func() {
		if have && !best.Tombstone {
			out = append(out, best.Clone())
		}
		have = false
	}
	for _, v := range n.versions {
		if v.IsPending() || v.Time > at {
			continue
		}
		if v.Key.Compare(low) < 0 || high.CompareKey(v.Key) <= 0 || !clip.ContainsKey(v.Key) {
			continue
		}
		if have && v.Key.Equal(best.Key) {
			if v.Time > best.Time {
				best = v
			}
			continue
		}
		flush()
		best, have = v, true
	}
	flush()
	return out
}
