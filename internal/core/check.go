package core

import (
	"fmt"

	"repro/internal/record"
)

// CheckInvariants walks the whole tree and verifies the structural
// invariants of the TSB-tree. It is used by the property-based tests and
// by cmd/tsbdump. The invariants checked:
//
//  1. every node's rectangle is well formed and the root covers the whole
//     key×time space;
//  2. the entries of every index node exactly partition its rectangle
//     (redundant rule-4 copies are clipped, so the partition is exact);
//  3. an entry references a magnetic (current) node exactly when its time
//     interval is open-ended;
//  4. a current child's own rectangle equals its entry's rectangle, and a
//     historical child's rectangle contains its entry's (clipping only
//     shrinks what a parent claims of a shared historical node);
//  5. leaf versions lie inside the leaf's key range and time bound, and a
//     version older than the node's start is the version valid at the
//     start (a clause-3 copy of the Time-Split Rule);
//  6. pending versions appear only in current nodes (they can always be
//     erased, §4);
//  7. historical nodes contain no pending data and reference no current
//     nodes;
//  8. every leaf lies at depth Height-1, however it is reached: only a
//     root split adds a level, so the tree stays balanced across time
//     splits and shared historical nodes.
func (t *Tree) CheckInvariants() error {
	return t.walkDAG(func(r dagRef) error {
		if r.e == nil {
			if !r.rect.Equal(record.WholeSpace()) {
				return fmt.Errorf("root rect %s is not the whole space", r.rect)
			}
		} else if r.e.isCurrent() {
			if !r.rect.Equal(r.e.rect) {
				return fmt.Errorf("index %s: current child %s rect %s != entry rect %s",
					r.from, r.addr, r.rect, r.e.rect)
			}
		} else if !rectContainsRect(r.rect, r.e.rect) {
			return fmt.Errorf("index %s: historical child %s rect %s does not contain entry rect %s",
				r.from, r.addr, r.rect, r.e.rect)
		}
		if r.n == nil {
			return nil // checked on its first reference
		}
		return t.checkNode(r.n, r.depth)
	})
}

// checkNode checks the node at depth (the root's is 0) on its own; the
// walk checks each reference to it.
func (t *Tree) checkNode(n *node, depth int) error {
	if n.leaf && depth != t.stats.Height-1 {
		return fmt.Errorf("leaf %s: at depth %d in a tree of height %d", n.addr, depth, t.stats.Height)
	}
	if err := checkRect(n.rect); err != nil {
		return fmt.Errorf("node %s: %w", n.addr, err)
	}
	if n.addr.IsWORM() && n.rect.IsCurrent() {
		return fmt.Errorf("node %s: historical node with open time interval", n.addr)
	}
	if n.leaf {
		return t.checkLeaf(n)
	}
	return checkIndex(n)
}

func checkRect(r record.Rect) error {
	if r.HighKey.CompareKey(r.LowKey) <= 0 {
		return fmt.Errorf("empty key range in rect %s", r)
	}
	if r.End <= r.Start {
		return fmt.Errorf("empty time interval in rect %s", r)
	}
	return nil
}

func (t *Tree) checkLeaf(n *node) error {
	// A version older than the node's start can only be a clause-3 copy
	// (the version valid at the split time). There can be at most one
	// per key: the largest version-time strictly below the start.
	belowStart := make(map[string]record.Timestamp)
	for i, v := range n.versions {
		if !n.rect.ContainsKey(v.Key) {
			return fmt.Errorf("leaf %s: version %s outside key range %s", n.addr, v, n.rect)
		}
		if v.IsPending() {
			if !n.rect.IsCurrent() {
				return fmt.Errorf("leaf %s: pending version %s in historical node", n.addr, v)
			}
			continue
		}
		if v.Time >= n.rect.End {
			return fmt.Errorf("leaf %s: version %s at or after rect end %s", n.addr, v, n.rect)
		}
		if v.Time < n.rect.Start {
			if prev, dup := belowStart[string(v.Key)]; dup {
				return fmt.Errorf("leaf %s: versions %s and %s of key %s both predate rect start %s (only the clause-3 copy may)",
					n.addr, prev, v.Time, v.Key, n.rect)
			}
			belowStart[string(v.Key)] = v.Time
		}
		if i > 0 && v.Before(n.versions[i-1]) {
			return fmt.Errorf("leaf %s: versions out of order at %d", n.addr, i)
		}
	}
	return nil
}

func checkIndex(n *node) error {
	if len(n.entries) == 0 {
		return fmt.Errorf("index %s: no entries", n.addr)
	}
	for _, e := range n.entries {
		if err := checkRect(e.rect); err != nil {
			return fmt.Errorf("index %s entry: %w", n.addr, err)
		}
		if !rectContainsRect(n.rect, e.rect) {
			return fmt.Errorf("index %s: entry rect %s outside node rect %s", n.addr, e.rect, n.rect)
		}
		if e.isCurrent() != e.rect.IsCurrent() {
			return fmt.Errorf("index %s: entry %s -> %s mixes device and time openness", n.addr, e.rect, e.child)
		}
		if n.addr.IsWORM() && e.isCurrent() {
			return fmt.Errorf("index %s: historical node references current node %s (§3.5)", n.addr, e.child)
		}
	}
	if err := checkPartition(n); err != nil {
		return fmt.Errorf("index %s: %w", n.addr, err)
	}
	return nil
}

func rectContainsRect(outer, inner record.Rect) bool {
	if inner.LowKey.Compare(outer.LowKey) < 0 {
		return false
	}
	if outer.HighKey.Compare(inner.HighKey) < 0 {
		return false
	}
	return inner.Start >= outer.Start && inner.End <= outer.End
}

// checkPartition verifies that the entries exactly tile the node's
// rectangle: within every key slab delimited by entry key boundaries, the
// time intervals of the covering entries abut from the node's start to its
// end with no gap or overlap.
func checkPartition(n *node) error {
	// Gather key boundaries.
	type boundary struct {
		key record.Key
		inf bool
	}
	var bs []boundary
	add := func(k record.Key, inf bool) {
		for _, b := range bs {
			if b.inf == inf && (inf || b.key.Equal(k)) {
				return
			}
		}
		bs = append(bs, boundary{key: k, inf: inf})
	}
	add(n.rect.LowKey, false)
	if n.rect.HighKey.IsInfinite() {
		add(nil, true)
	} else {
		add(n.rect.HighKey.Key(), false)
	}
	for _, e := range n.entries {
		add(e.rect.LowKey, false)
		if e.rect.HighKey.IsInfinite() {
			add(nil, true)
		} else {
			add(e.rect.HighKey.Key(), false)
		}
	}
	// Sort: finite keys ascending, infinity last.
	for i := 0; i < len(bs); i++ {
		for j := i + 1; j < len(bs); j++ {
			bi, bj := bs[i], bs[j]
			swap := false
			switch {
			case bi.inf && !bj.inf:
				swap = true
			case !bi.inf && !bj.inf && bj.key.Less(bi.key):
				swap = true
			}
			if swap {
				bs[i], bs[j] = bs[j], bs[i]
			}
		}
	}
	// Check each slab [bs[i], bs[i+1]).
	for i := 0; i+1 < len(bs); i++ {
		lo := bs[i]
		if lo.inf {
			break
		}
		if lo.key.Compare(n.rect.LowKey) < 0 {
			continue
		}
		if !n.rect.ContainsKey(lo.key) {
			continue
		}
		var ivs []record.Rect
		for _, e := range n.entries {
			if e.rect.ContainsKey(lo.key) {
				ivs = append(ivs, e.rect)
			}
		}
		// Sort by start time.
		for a := 0; a < len(ivs); a++ {
			for b := a + 1; b < len(ivs); b++ {
				if ivs[b].Start < ivs[a].Start {
					ivs[a], ivs[b] = ivs[b], ivs[a]
				}
			}
		}
		if len(ivs) == 0 {
			return fmt.Errorf("key slab at %s uncovered", lo.key)
		}
		if ivs[0].Start != n.rect.Start {
			return fmt.Errorf("key slab at %s starts at %s, node starts at %s",
				lo.key, ivs[0].Start, n.rect.Start)
		}
		for a := 1; a < len(ivs); a++ {
			if ivs[a].Start != ivs[a-1].End {
				return fmt.Errorf("key slab at %s: gap or overlap between %s and %s",
					lo.key, ivs[a-1], ivs[a])
			}
		}
		if ivs[len(ivs)-1].End != n.rect.End {
			return fmt.Errorf("key slab at %s ends at %s, node ends at %s",
				lo.key, ivs[len(ivs)-1].End, n.rect.End)
		}
	}
	return nil
}
