package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/record"
	"repro/internal/storage"
)

// entry is one index item: a child node and the key×time rectangle it is
// responsible for. Entries of an index node exactly partition the node's
// own rectangle (stored explicitly; see record.Rect on that representation).
type entry struct {
	rect  record.Rect
	child storage.Addr
}

// isCurrent reports whether the entry references a node of the current
// database (erasable, magnetic).
func (e entry) isCurrent() bool { return e.child.IsMagnetic() }

// node is the in-memory form of a TSB-tree node. Current nodes are
// deserialized from magnetic pages and may be rewritten; historical nodes
// are deserialized from WORM runs and are immutable.
type node struct {
	addr storage.Addr
	rect record.Rect
	leaf bool

	// versions holds a leaf's records sorted by (key, time), pending
	// last within a key. In a current leaf some versions may have
	// times before rect.Start: those are the clause-3 copies of the
	// Time-Split Rule (the version valid at the split time).
	versions []record.Version

	// entries holds an index node's children sorted by (LowKey, Start).
	entries []entry
}

const (
	nodeKindLeaf  = 0
	nodeKindIndex = 1
)

// encodeNode serializes a node body.
func encodeNode(n *node) []byte {
	e := record.NewEncoder(nil)
	if n.leaf {
		e.Byte(nodeKindLeaf)
	} else {
		e.Byte(nodeKindIndex)
	}
	e.Rect(n.rect)
	if n.leaf {
		e.Versions(n.versions)
	} else {
		e.Uvarint(uint64(len(n.entries)))
		for _, en := range n.entries {
			e.Rect(en.rect)
			e.Byte(byte(en.child.Kind))
			e.Uvarint(en.child.Off)
			e.Uvarint(uint64(en.child.Len))
		}
	}
	return e.Bytes()
}

// minEntrySize is the smallest encoded index entry: a rectangle (empty
// low key, infinite high bound, two times) and a three-field address.
const minEntrySize = 7

// decodeNode parses a node body. The node's keys, values and bounds are
// views into data, which the caller must own: every device read returns a
// private buffer. Whatever the package hands out of a node is cloned.
func decodeNode(data []byte, addr storage.Addr) (*node, error) {
	d := record.NewViewDecoder(data)
	n := &node{addr: addr, leaf: d.Byte() == nodeKindLeaf}
	n.rect = d.Rect()
	if n.leaf {
		n.versions = d.Versions()
	} else {
		count := d.Count(minEntrySize)
		n.entries = make([]entry, 0, count)
		for i := 0; i < count && d.Err() == nil; i++ {
			var en entry
			en.rect = d.Rect()
			en.child.Kind = storage.DeviceKind(d.Byte())
			en.child.Off = d.Uvarint()
			en.child.Len = uint32(d.Uvarint())
			n.entries = append(n.entries, en)
		}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("core: node %s: %w", addr, d.Err())
	}
	return n, nil
}

// readNode loads the node at addr from the appropriate device.
func (t *Tree) readNode(addr storage.Addr) (*node, error) {
	t.nodeDecodes.Inc()
	switch addr.Kind {
	case storage.KindMagnetic:
		data, err := t.mag.Read(addr.Off)
		if err != nil {
			return nil, err
		}
		return decodeNode(data, addr)
	case storage.KindWORM:
		data, err := t.worm.ReadAt(addr)
		if err != nil {
			return nil, err
		}
		return decodeNode(data, addr)
	default:
		return nil, fmt.Errorf("core: read of nil address")
	}
}

// writeCurrent serializes a current node back to its magnetic page.
func (t *Tree) writeCurrent(n *node) error {
	if !n.addr.IsMagnetic() {
		return fmt.Errorf("core: writeCurrent of %s", n.addr)
	}
	data := t.encode(n)
	if len(data) > t.mag.PageSize() {
		return fmt.Errorf("core: node %s of %d bytes exceeds page size %d",
			n.addr, len(data), t.mag.PageSize())
	}
	if !n.leaf {
		t.indexEpoch++
	}
	return t.mag.Write(n.addr.Off, data)
}

// migrate appends a node to the historical database, consolidated into a
// variable-length WORM run, and returns its address (§3.4: node-at-a-time
// migration; the index pointer records address and length).
func (t *Tree) migrate(n *node) (storage.Addr, error) {
	for _, v := range n.versions {
		if v.IsPending() {
			return storage.NilAddr, fmt.Errorf("core: pending version cannot migrate (paper §4)")
		}
	}
	for _, e := range n.entries {
		if e.isCurrent() {
			return storage.NilAddr, fmt.Errorf("core: entry referencing current node cannot migrate (paper §3.5)")
		}
	}
	data := t.encode(n)
	addr, err := t.worm.Append(data)
	if err != nil {
		return storage.NilAddr, err
	}
	t.stats.HistoricalNodes++
	t.stats.VersionsMigrated += uint64(len(n.versions))
	t.stats.BytesMigrated += uint64(len(data))
	return addr, nil
}

// encode serializes a node, counting the access.
func (t *Tree) encode(n *node) []byte {
	t.nodeEncodes.Inc()
	return encodeNode(n)
}

// size returns the encoded size of the node, len(encodeNode(n)), by
// arithmetic: sizing a node on the insertion path must not serialize it.
func (t *Tree) size(n *node) int {
	size := 1 + n.rect.EncodedSize()
	if n.leaf {
		size += record.UvarintSize(uint64(len(n.versions)))
		for _, v := range n.versions {
			size += v.EncodedSize()
		}
		return size
	}
	size += record.UvarintSize(uint64(len(n.entries)))
	for _, e := range n.entries {
		size += e.rect.EncodedSize() + 1 + record.UvarintSize(e.child.Off) + record.UvarintSize(uint64(e.child.Len))
	}
	return size
}

// sortVersions restores the canonical (key, time) order, pending last
// within each key.
func sortVersions(vs []record.Version) {
	slices.SortFunc(vs, func(a, b record.Version) int {
		if c := a.Key.Compare(b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Time, b.Time)
	})
}

// sortEntries restores the canonical (LowKey, Start) order.
func sortEntries(es []entry) {
	sort.Slice(es, func(i, j int) bool {
		if c := es[i].rect.LowKey.Compare(es[j].rect.LowKey); c != 0 {
			return c < 0
		}
		return es[i].rect.Start < es[j].rect.Start
	})
}

// findCurrentEntry returns the position of the unique current entry whose
// key range contains k, or -1.
func findCurrentEntry(n *node, k record.Key) int {
	for i, e := range n.entries {
		if e.rect.IsCurrent() && e.rect.ContainsKey(k) {
			return i
		}
	}
	return -1
}

// findEntryAt returns the position of the unique entry containing the
// point (k, at), or -1.
func findEntryAt(n *node, k record.Key, at record.Timestamp) int {
	for i, e := range n.entries {
		if e.rect.Contains(k, at) {
			return i
		}
	}
	return -1
}

// latestAtOrBefore returns, among the node's versions of key k with
// committed time <= at, the one with the largest time.
func latestAtOrBefore(n *node, k record.Key, at record.Timestamp) (record.Version, bool) {
	var out record.Version
	ok := false
	for _, v := range n.versions {
		if !v.Key.Equal(k) || v.IsPending() || v.Time > at {
			continue
		}
		if !ok || v.Time > out.Time {
			out = v
			ok = true
		}
	}
	return out, ok
}
