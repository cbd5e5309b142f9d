package core

// Maintenance support for WORM compaction (internal/db's maintenance
// scheduler): walking the live-run set and patching relocated addresses.
//
// The live-run set of a tree is every WORM run reachable from its root.
// Historical nodes form a DAG (rule 4 of §3.5 duplicates references to
// them), so the walk dedupes by first sector. Runs that are burned but
// unreachable — crash orphans — are dead: no read path can ever visit
// them, which is what makes relocating the live tail and truncating the
// device safe.

import (
	"fmt"

	"repro/internal/storage"
)

// WormRefs adds every WORM run reachable from the tree's root to seen,
// keyed by first sector. Call under at least a read latch. The same map
// may be passed across the trees sharing one burn file (shards and
// secondary indexes) to accumulate the device-wide live set.
func (t *Tree) WormRefs(seen map[uint64]storage.Addr) error {
	return t.collectWormRefs(t.root, seen)
}

func (t *Tree) collectWormRefs(addr storage.Addr, seen map[uint64]storage.Addr) error {
	n, err := t.readNode(addr)
	if err != nil {
		return err
	}
	for _, e := range n.entries {
		if e.child.IsMagnetic() {
			if err := t.collectWormRefs(e.child, seen); err != nil {
				return err
			}
			continue
		}
		if _, ok := seen[e.child.Off]; ok {
			continue
		}
		seen[e.child.Off] = e.child
		if err := t.collectWormRefs(e.child, seen); err != nil {
			return err
		}
	}
	return nil
}

// RewriteWormRefs rewrites, in every reachable magnetic node, child
// addresses whose run was relocated by a compaction (remap keys the old
// first sector). Call under the write latch, after the relocated runs are
// on the device. Relocated runs only ever move to smaller offsets, so the
// rewritten nodes never outgrow their pages. Returns how many entries
// were patched.
func (t *Tree) RewriteWormRefs(remap map[uint64]storage.Addr) (int, error) {
	return t.rewriteWormRefs(t.root, remap)
}

func (t *Tree) rewriteWormRefs(addr storage.Addr, remap map[uint64]storage.Addr) (int, error) {
	n, err := t.readNode(addr)
	if err != nil {
		return 0, err
	}
	patched := 0
	dirty := false
	for i, e := range n.entries {
		if e.child.IsMagnetic() {
			k, err := t.rewriteWormRefs(e.child, remap)
			patched += k
			if err != nil {
				return patched, err
			}
			continue
		}
		if na, ok := remap[e.child.Off]; ok {
			n.entries[i].child = na
			dirty = true
			patched++
		}
	}
	if dirty {
		if err := t.writeCurrent(n); err != nil {
			return patched, err
		}
	}
	return patched, nil
}

// RemapWormPayload rewrites the WORM child addresses inside one encoded
// historical node per remap, returning the re-encoded payload (or the
// input unchanged when nothing matched). The compactor uses it to patch
// historical index nodes while copying live runs forward; processing runs
// in ascending old offset means every child (burned before its parents,
// so at a smaller offset) is already remapped when its parent is visited.
func RemapWormPayload(data []byte, remap map[uint64]storage.Addr) ([]byte, error) {
	n, err := decodeNode(data, storage.Addr{Kind: storage.KindWORM})
	if err != nil {
		return nil, err
	}
	if n.leaf {
		return data, nil
	}
	changed := false
	for i, e := range n.entries {
		if e.child.Kind != storage.KindWORM {
			return nil, fmt.Errorf("core: historical node references non-WORM child %s", e.child)
		}
		if na, ok := remap[e.child.Off]; ok {
			n.entries[i].child = na
			changed = true
		}
	}
	if !changed {
		return data, nil
	}
	return encodeNode(n), nil
}
