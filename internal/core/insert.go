package core

import (
	"fmt"

	"repro/internal/record"
)

// Insert adds a version to the tree. Committed versions must carry
// timestamps no earlier than any previously committed timestamp (rollback
// databases append in commit-time order). Pending versions (Time ==
// record.TimePending) must carry the writing transaction's id; a second
// pending write of the same key by the same transaction replaces the first.
// A pending write of a key another transaction holds (its pending version
// is the write lock) fails with ErrLockConflict before the descent: a
// refused write splits and burns nothing.
//
// Nodes on the insertion path that are too full to absorb the incoming
// data — or the postings of a descendant's split — are split top-down
// before descent, so a split's postings always fit in the (erasable)
// parent.
//
//tsb:io -- a time split can burn the historical half inline
func (t *Tree) Insert(v record.Version) error {
	if err := t.validate(v); err != nil {
		return err
	}
	if owner, held := t.pending[string(v.Key)]; held && v.IsPending() && owner != v.TxnID {
		return fmt.Errorf("%w: key %s held by txn %d", ErrLockConflict, v.Key, owner)
	}
	if v.Time.IsCommitted() && v.Time > t.now {
		t.now = v.Time
	}
	vSize := v.EncodedSize()

	// Make sure the root itself has room for the insertion or for the
	// postings of a child split; the descent starts from the root that
	// has it.
	var n *node
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		var limit, need int
		if root.leaf {
			limit, need = t.cfg.LeafCapacity, vSize+4
		} else {
			limit, need = t.cfg.IndexCapacity, 3*t.entryCap
		}
		if t.size(root)+need <= limit {
			n = root
			break
		}
		if err := t.splitRoot(); err != nil {
			return err
		}
	}
	for !n.leaf {
		idx := findCurrentEntry(n, v.Key)
		if idx < 0 {
			return fmt.Errorf("core: no current entry for key %s in node %s (invariant violation)", v.Key, n.addr)
		}
		child, err := t.readNode(n.entries[idx].child)
		if err != nil {
			return err
		}
		forced := child.leaf && t.marked[child.addr.Off] && t.timeSplittable(child)
		needSplit := forced
		if child.leaf {
			if t.size(child)+vSize+4 > t.cfg.LeafCapacity {
				needSplit = true
			}
		} else if t.size(child)+3*t.entryCap > t.cfg.IndexCapacity {
			needSplit = true
		}
		if needSplit {
			if n, err = t.splitChild(n, idx, forced); err != nil {
				return err
			}
			if idx = findCurrentEntry(n, v.Key); idx < 0 {
				return fmt.Errorf("core: lost current entry for key %s after split", v.Key)
			}
			if child, err = t.readNode(n.entries[idx].child); err != nil {
				return err
			}
		}
		n = child
	}

	if v.IsPending() {
		// Replace an earlier pending write of the same key by the
		// same transaction. Another transaction's version here is one
		// the entry check could not see: a reattached image's, not yet
		// erased by recovery.
		for i, old := range n.versions {
			if old.IsPending() && old.Key.Equal(v.Key) {
				if old.TxnID != v.TxnID {
					return fmt.Errorf("core: key %s has a pending version of transaction %d", v.Key, old.TxnID)
				}
				n.versions[i] = v
				return t.writeCurrent(n)
			}
		}
	} else {
		// A key has at most one version per commit time: versions of
		// a key are strictly ordered in a rollback database.
		for _, old := range n.versions {
			if !old.IsPending() && old.Time == v.Time && old.Key.Equal(v.Key) {
				return fmt.Errorf("core: key %s already has a version at time %s", v.Key, v.Time)
			}
		}
	}
	n.versions = append(n.versions, v)
	sortVersions(n.versions)
	if err := t.writeCurrent(n); err != nil {
		return err
	}
	if v.IsPending() {
		t.pending[string(v.Key)] = v.TxnID
	}
	t.stats.Inserts++
	if v.Tombstone {
		t.stats.Deletes++
	}
	return nil
}

// timeSplittable reports whether leaf n has a legal time split: one at
// now, which chooseSplitTime falls back to and which is legal whenever
// any split time is — the leaf started before now and holds a committed
// version older than now. A marked leaf without one is not forced: a
// forced split of it could only key split a leaf that may not be full,
// and a leaf of one key could not split at all.
func (t *Tree) timeSplittable(n *node) bool {
	if n.rect.Start >= t.now {
		return false
	}
	for _, v := range n.versions {
		if !v.IsPending() && v.Time < t.now {
			return true
		}
	}
	return false
}

// currentLeaf descends to the current leaf responsible for key k.
func (t *Tree) currentLeaf(k record.Key) (*node, error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		idx := findCurrentEntry(n, k)
		if idx < 0 {
			return nil, fmt.Errorf("core: no current entry for key %s in node %s", k, n.addr)
		}
		if n, err = t.readNode(n.entries[idx].child); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// CommitKey stamps the pending version of key k written by transaction
// txnID with its commit time. Records of uncommitted transactions have no
// timestamps; the commit time is posted when the transaction commits (§4).
func (t *Tree) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) error {
	if !commitTime.IsCommitted() {
		return fmt.Errorf("core: invalid commit time %s", commitTime)
	}
	if commitTime < t.now {
		return fmt.Errorf("core: commit time %s before current time %s", commitTime, t.now)
	}
	n, err := t.currentLeaf(k)
	if err != nil {
		return err
	}
	for i, v := range n.versions {
		if v.IsPending() && v.Key.Equal(k) && v.TxnID == txnID {
			n.versions[i].Time = commitTime
			sortVersions(n.versions)
			if err := t.writeCurrent(n); err != nil {
				return err
			}
			delete(t.pending, string(k))
			t.now = commitTime
			t.stats.Restamps++
			return nil
		}
	}
	return fmt.Errorf("%w: key %s, transaction %d", ErrNoPending, k, txnID)
}

// AbortKey erases the pending version of key k written by transaction
// txnID. Erasing is possible precisely because uncommitted data is never
// migrated to the write-once historical database (§4).
func (t *Tree) AbortKey(k record.Key, txnID uint64) error {
	n, err := t.currentLeaf(k)
	if err != nil {
		return err
	}
	for i, v := range n.versions {
		if v.IsPending() && v.Key.Equal(k) && v.TxnID == txnID {
			n.versions = append(n.versions[:i], n.versions[i+1:]...)
			if err := t.writeCurrent(n); err != nil {
				return err
			}
			delete(t.pending, string(k))
			return nil
		}
	}
	return fmt.Errorf("%w: key %s, transaction %d", ErrNoPending, k, txnID)
}
