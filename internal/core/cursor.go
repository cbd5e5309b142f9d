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
// the scan is finished. Every pager (core.Cursor, the txn cursor) goes
// through this single copy of the contract.
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
// root-to-leaf descent — O(tree height) node reads per page regardless
// of database size. The page's NextLow/NextHigh shrink the window for
// the following call, so repeated calls enumerate the full snapshot
// exactly once, in order, with strictly decreasing window size.
//
// Because the entries of every index node partition its rectangle, each
// (key, at) point lives in exactly one leaf: pages never overlap and no
// deduplication across pages is needed.
func (t *Tree) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (Page, error) {
	if reverse {
		return t.scanPageReverse(at, low, high)
	}
	// Descend to the leaf containing the point (low, at), tracking the
	// clip (the intersection of entry rectangles along the path): a
	// shared historical node owns only the keys inside the clip.
	clip := record.WholeSpace()
	n, err := t.readNode(t.root)
	if err != nil {
		return Page{}, err
	}
	for !n.leaf {
		next := -1
		var sub record.Rect
		for i, e := range n.entries {
			s, ok := e.rect.Intersect(clip)
			if ok && s.Contains(low, at) {
				next, sub = i, s
				break
			}
		}
		if next < 0 {
			// No slab covers (low, at): nothing is visible there.
			return Page{}, nil
		}
		clip = sub
		if n, err = t.readNode(n.entries[next].child); err != nil {
			return Page{}, err
		}
	}
	p := Page{Versions: visibleInLeaf(n, at, low, high, clip)}
	if !clip.HighKey.IsInfinite() {
		next := clip.HighKey.Key()
		if high.CompareKey(next) > 0 {
			p.NextLow = next.Clone()
			p.More = true
		}
	}
	return p, nil
}

// scanPageReverse descends to the leaf responsible for the greatest keys
// of the window at time at: at each index node it takes the matching
// entry with the greatest low key (entries are sorted by (LowKey, Start),
// and at a fixed time the slabs partition the key space, so scanning
// from the end finds it first).
func (t *Tree) scanPageReverse(at record.Timestamp, low record.Key, high record.Bound) (Page, error) {
	clip := record.WholeSpace()
	n, err := t.readNode(t.root)
	if err != nil {
		return Page{}, err
	}
	for !n.leaf {
		next := -1
		var sub record.Rect
		for i := len(n.entries) - 1; i >= 0; i-- {
			s, ok := n.entries[i].rect.Intersect(clip)
			if ok && s.ContainsTime(at) && s.OverlapsKeyRange(low, high) {
				next, sub = i, s
				break
			}
		}
		if next < 0 {
			return Page{}, nil
		}
		clip = sub
		if n, err = t.readNode(n.entries[next].child); err != nil {
			return Page{}, err
		}
	}
	vs := visibleInLeaf(n, at, low, high, clip)
	slices.Reverse(vs)
	p := Page{Versions: vs}
	if len(clip.LowKey) > 0 && low.Compare(clip.LowKey) < 0 {
		p.NextHigh = record.KeyBound(clip.LowKey.Clone())
		p.More = true
	}
	return p, nil
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

// Cursor streams a snapshot of the database at a fixed time in key order
// without materializing it: the iterator form of ScanAsOf, for backups,
// pagination, and large range reads. A cursor is resumable: it keeps only
// a (low, high) window between pages, never node addresses, so the tree
// may split freely between two Next calls — the snapshot it reports is
// still exactly the state at its timestamp. It is positioned before the
// first version until Next is called.
type Cursor struct {
	tree    *Tree
	at      record.Timestamp
	low     record.Key
	high    record.Bound
	reverse bool

	buf  []record.Version
	pos  int
	done bool
	err  error
}

// NewCursor returns a cursor over keys in [low, high) as of time at, in
// ascending key order.
func (t *Tree) NewCursor(at record.Timestamp, low record.Key, high record.Bound) *Cursor {
	return &Cursor{tree: t, at: at, low: low.Clone(), high: high}
}

// NewReverseCursor returns a cursor over keys in [low, high) as of time
// at, in descending key order.
func (t *Tree) NewReverseCursor(at record.Timestamp, low record.Key, high record.Bound) *Cursor {
	return &Cursor{tree: t, at: at, low: low.Clone(), high: high, reverse: true}
}

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Next advances to the next version and reports whether one is available.
// Each underlying page fetch is a single root-to-leaf descent.
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.pos < len(c.buf) {
			c.pos++
			return true
		}
		if c.done {
			return false
		}
		p, err := c.tree.ScanPageAsOf(c.at, c.low, c.high, c.reverse)
		if err != nil {
			c.err = err
			return false
		}
		c.buf, c.pos = p.Versions, 0
		c.low, c.high, c.done = p.Advance(c.low, c.high, c.reverse)
	}
}

// Version returns the version the cursor is positioned on. It must only be
// called after a successful Next.
func (c *Cursor) Version() record.Version { return c.buf[c.pos-1] }
