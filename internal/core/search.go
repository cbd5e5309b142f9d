package core

import (
	"sort"

	"repro/internal/record"
	"repro/internal/storage"
)

// Get returns the most recent committed version of key k. The boolean is
// false if no committed version exists or the latest one is a tombstone.
// Current-version search touches only magnetic nodes: the whole point of
// time splitting is that "the most recent versions of records are kept in
// a small number of nodes" (§2).
func (t *Tree) Get(k record.Key) (record.Version, bool, error) {
	n, err := t.currentLeaf(k)
	if err != nil {
		return record.Version{}, false, err
	}
	v, ok := latestAtOrBefore(n, k, record.TimeInfinity)
	if !ok || v.Tombstone {
		return record.Version{}, false, nil
	}
	return v.Clone(), true, nil
}

// GetPending returns transaction txnID's uncommitted version of key k, if
// any.
func (t *Tree) GetPending(k record.Key, txnID uint64) (record.Version, bool, error) {
	n, err := t.currentLeaf(k)
	if err != nil {
		return record.Version{}, false, err
	}
	for _, v := range n.versions {
		if v.IsPending() && v.Key.Equal(k) && v.TxnID == txnID {
			return v.Clone(), true, nil
		}
	}
	return record.Version{}, false, nil
}

// GetAsOf returns the version of key k valid at time at: the version with
// the largest commit time not exceeding at. A single root-to-leaf descent
// finds it: at each index node exactly one entry's rectangle contains the
// point (k, at), and clause 3 of the Time-Split Rule guarantees the node
// covering the point also holds the version valid at its start.
func (t *Tree) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return record.Version{}, false, err
	}
	for !n.leaf {
		idx := findEntryAt(n, k, at)
		if idx < 0 {
			return record.Version{}, false, nil
		}
		if n, err = t.readNode(n.entries[idx].child); err != nil {
			return record.Version{}, false, err
		}
	}
	v, ok := latestAtOrBefore(n, k, at)
	if !ok || v.Tombstone {
		return record.Version{}, false, nil
	}
	return v.Clone(), true, nil
}

// ScanAsOf returns the snapshot of keys in [low, high) as of time at,
// sorted by key. Because the entries of every index node partition its
// rectangle, each (key, at) point lives in exactly one leaf: no
// deduplication across redundant copies is needed, and records valid at
// the same time are clustered in a small number of nodes (§3.1).
func (t *Tree) ScanAsOf(at record.Timestamp, low record.Key, high record.Bound) ([]record.Version, error) {
	var out []record.Version
	// clip is the intersection of the entry rectangles along the path.
	// A shared historical node may be reached through a clipped entry
	// (rule 4 of §3.5 duplicates references, clipping each side): only
	// the keys inside the clip belong to this visit, the rest are owned
	// by the node's other parent.
	var visit func(addr storage.Addr, clip record.Rect) error
	visit = func(addr storage.Addr, clip record.Rect) error {
		n, err := t.readNode(addr)
		if err != nil {
			return err
		}
		if !n.leaf {
			for _, e := range n.entries {
				sub, ok := e.rect.Intersect(clip)
				if !ok || !sub.ContainsTime(at) || !sub.OverlapsKeyRange(low, high) {
					continue
				}
				if err := visit(e.child, sub); err != nil {
					return err
				}
			}
			return nil
		}
		best := make(map[string]record.Version)
		for _, v := range n.versions {
			if v.IsPending() || v.Time > at {
				continue
			}
			if v.Key.Compare(low) < 0 || high.CompareKey(v.Key) <= 0 {
				continue
			}
			if !clip.ContainsKey(v.Key) {
				continue
			}
			if prev, ok := best[string(v.Key)]; !ok || v.Time > prev.Time {
				best[string(v.Key)] = v
			}
		}
		for _, v := range best {
			if !v.Tombstone {
				out = append(out, v.Clone())
			}
		}
		return nil
	}
	if err := visit(t.root, record.WholeSpace()); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out, nil
}

// History returns every committed version of key k (tombstones included),
// oldest first. It visits each node whose key range contains k, across all
// time slices, deduplicating the redundant copies that time splitting
// creates.
func (t *Tree) History(k record.Key) ([]record.Version, error) {
	seen := make(map[record.Timestamp]record.Version)
	var visit func(addr storage.Addr) error
	visit = func(addr storage.Addr) error {
		n, err := t.readNode(addr)
		if err != nil {
			return err
		}
		if !n.leaf {
			for _, e := range n.entries {
				if e.rect.ContainsKey(k) {
					if err := visit(e.child); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for _, v := range n.versions {
			if !v.IsPending() && v.Key.Equal(k) {
				seen[v.Time] = v
			}
		}
		return nil
	}
	if err := visit(t.root); err != nil {
		return nil, err
	}
	out := make([]record.Version, 0, len(seen))
	for _, v := range seen {
		out = append(out, v.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// History may visit the same historical node through more than one parent
// (the TSB-tree is a DAG); the map of timestamps deduplicates versions.
