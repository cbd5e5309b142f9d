package core

import (
	"slices"

	"repro/internal/record"
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
	at = readTime(at)
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

// readTime maps the time of an as-of read onto the tree: any time at or
// past TimePending reads the latest committed state. TimePending lies
// inside every current rectangle (see Rect.Contains); TimeInfinity lies
// inside none, since rectangles are half-open in time.
func readTime(at record.Timestamp) record.Timestamp {
	return min(at, record.TimePending)
}

// ScanAsOf returns the snapshot of keys in [low, high) as of time at,
// sorted by key: the window [at, at+1) of ScanRange, which holds per key
// the version valid at at, with the keys deleted by then dropped.
func (t *Tree) ScanAsOf(at record.Timestamp, low record.Key, high record.Bound) ([]record.Version, error) {
	at = readTime(at)
	vs, err := t.ScanRange(low, high, at, at+1)
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(vs, func(v record.Version) bool { return v.Tombstone }), nil
}

// History returns every committed version of key k (tombstones included),
// oldest first: the window of ScanRange that spans one key and all time.
// The walk may reach a historical node through more than one parent (the
// TSB-tree is a DAG); ScanRange drops the redundant copies.
func (t *Tree) History(k record.Key) ([]record.Version, error) {
	return t.ScanRange(k, record.KeyBound(k.Successor()), record.TimeZero, record.TimeInfinity)
}
