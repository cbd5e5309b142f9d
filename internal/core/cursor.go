package core

import (
	"math"
	"slices"

	"repro/internal/record"
	"repro/internal/storage"
)

// Page is one latch-scoped unit of a streaming scan: the versions of a
// single leaf's keys, plus the continuation that reads the next page.
//
// Pages are what make cursors cheap to hand off across latches: a caller
// that latches the tree externally (the db layer's shard router) holds
// the latch for one page call, ScanPageAsOf or ScanRangePage for the
// first page and Resume for each later one, with no latch held in
// between. A snapshot stays consistent across that gap without any
// locking because of the non-deletion policy: versions visible at a
// fixed time are immutable, since later commits carry later timestamps
// and time splits preserve visibility at every past time.
type Page struct {
	// Versions holds the page's versions in ascending key order
	// (descending when the page was produced with reverse=true).
	Versions []record.Version
	// Resume reads the next page of the same scan. It is non-nil
	// exactly when more pages may follow, and must be called under the
	// same guard as the call that produced this page. It reads the index
	// nodes this page decoded from a memo (see pathMemo), so a scan
	// decodes about one node per further leaf; when the tree has written
	// an index node since, it descends afresh.
	Resume func() (Page, error)
}

// pathMemo holds the index nodes the last page of one scan decoded, so
// the next page of the same scan reads them without decoding again.
// Leaves are never kept, and an index node changes only through
// writeCurrent, which bumps the tree's indexEpoch: while the epoch is
// unchanged, every kept node is byte-identical to its page at every read
// time, TimePending and TimeInfinity included, and a resumed page is
// exactly what a fresh descent would return. Commits and aborts write
// only leaves, so they leave the memo valid. The memo holds only the
// nodes one page used, so its size is bounded by one page's walk.
type pathMemo struct {
	t     *Tree
	epoch uint64 // t.indexEpoch when every node in last and used was read
	last  []*node
	used  []*node
}

func newPathMemo(t *Tree) *pathMemo { return &pathMemo{t: t, epoch: t.indexEpoch} }

// read returns the node at addr from the memo, or decodes it and keeps
// it if it is an index node.
func (m *pathMemo) read(addr storage.Addr) (*node, error) {
	for _, n := range m.used {
		if n.addr == addr {
			return n, nil
		}
	}
	for _, n := range m.last {
		if n.addr == addr {
			m.used = append(m.used, n)
			return n, nil
		}
	}
	n, err := m.t.readNode(addr)
	if err == nil && !n.leaf {
		m.used = append(m.used, n)
	}
	return n, err
}

// next starts the memo's next page: the nodes the page before used stay
// readable unless the tree has written an index node since.
func (m *pathMemo) next() *pathMemo {
	if m.epoch != m.t.indexEpoch {
		m.epoch = m.t.indexEpoch
		m.used = m.used[:0]
	}
	m.last, m.used = m.used, m.last[:0]
	return m
}

// ScanPageAsOf returns the first page of the snapshot of [low, high) at
// time at: the visible versions of the single leaf responsible for the
// window edge (the low edge forward, the high edge in reverse), found by
// one edge descent of O(tree height) node reads. Its Resume reads the
// following pages, each one leaf further, so the pages enumerate the
// full snapshot exactly once, in order, with a strictly shrinking window.
//
// Because the entries of every index node partition its rectangle, each
// (key, at) point lives in exactly one leaf: pages never overlap and no
// deduplication across pages is needed.
func (t *Tree) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (Page, error) {
	return t.pageAsOf(newPathMemo(t), at, low, high, reverse)
}

func (t *Tree) pageAsOf(m *pathMemo, at record.Timestamp, low record.Key, high record.Bound, reverse bool) (Page, error) {
	n, clip, _, err := t.edge(m.read, at, low, high, reverse, math.MaxInt)
	if n == nil || err != nil {
		// No slab covers the edge at time at: nothing is visible there.
		return Page{}, err
	}
	p := Page{Versions: visibleInLeaf(n, at, low, high, clip)}
	if reverse {
		slices.Reverse(p.Versions)
		if len(clip.LowKey) > 0 && low.Compare(clip.LowKey) < 0 {
			high := record.KeyBound(clip.LowKey.Clone())
			p.Resume = func() (Page, error) { return t.pageAsOf(m.next(), at, low, high, true) }
		}
		return p, nil
	}
	if !clip.HighKey.IsInfinite() {
		if next := clip.HighKey.Key(); high.CompareKey(next) > 0 {
			low := next.Clone()
			p.Resume = func() (Page, error) { return t.pageAsOf(m.next(), at, low, high, false) }
		}
	}
	return p, nil
}

// edge descends through read toward the edge of the window [low, high)
// at time at — its least keys forward, its greatest in reverse — decoding
// at most reads nodes, and returns the leaf it reached with the clip of
// the path to it: the intersection of the entry rectangles along the
// path. A shared historical node owns only the keys inside the clip
// (rule 4 of §3.5 duplicates references, clipping each side). At a fixed
// time the slabs of an index node partition its key space and its
// entries are sorted by (LowKey, Start), so the first entry that
// overlaps the window, scanning from the front (from the back in
// reverse), is the one at the edge. ok is false when no slab overlaps
// the window at time at. When the reads run out above the leaf, the leaf
// is nil and the clip is that of the entry the descent stopped at.
func (t *Tree) edge(read func(storage.Addr) (*node, error), at record.Timestamp, low record.Key, high record.Bound, reverse bool, reads int) (leaf *node, clip record.Rect, ok bool, err error) {
	at = readTime(at)
	clip = record.WholeSpace()
	for addr := t.root; reads > 0; reads-- {
		var n *node
		if n, err = read(addr); err != nil || n.leaf {
			return n, clip, err == nil, err
		}
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
			return nil, clip, false, nil
		}
		addr = n.entries[next].child
	}
	return nil, clip, true, nil
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
