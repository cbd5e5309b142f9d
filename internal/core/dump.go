package core

import (
	"fmt"
	"strings"

	"repro/internal/record"
	"repro/internal/storage"
)

// EntryView is the exported, read-only form of an index entry, used by the
// figure reproductions, the dump tool, and tests.
type EntryView struct {
	Rect  record.Rect
	Child storage.Addr
}

// NodeView is the exported, read-only form of a node.
type NodeView struct {
	Addr     storage.Addr
	Rect     record.Rect
	Leaf     bool
	Versions []record.Version // leaf nodes
	Entries  []EntryView      // index nodes
}

// View returns a read-only snapshot of the node at addr.
func (t *Tree) View(addr storage.Addr) (NodeView, error) {
	n, err := t.readNode(addr)
	if err != nil {
		return NodeView{}, err
	}
	return viewOf(n), nil
}

func viewOf(n *node) NodeView {
	v := NodeView{Addr: n.addr, Rect: n.rect.Clone(), Leaf: n.leaf}
	for _, ver := range n.versions {
		v.Versions = append(v.Versions, ver.Clone())
	}
	for _, e := range n.entries {
		v.Entries = append(v.Entries, EntryView{Rect: e.rect.Clone(), Child: e.child})
	}
	return v
}

// String renders the node view in the style of the paper's figures.
func (v NodeView) String() string {
	var b strings.Builder
	kind := "index"
	if v.Leaf {
		kind = "leaf"
	}
	device := "mag"
	if v.Addr.IsWORM() {
		device = "worm"
	}
	fmt.Fprintf(&b, "%s@%s %s [", kind, device, v.Rect)
	if v.Leaf {
		for i, ver := range v.Versions {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(ver.String())
		}
	} else {
		for i, e := range v.Entries {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%s -> %s", e.Rect, e.Child)
		}
	}
	b.WriteString("]")
	return b.String()
}

// Dump renders the whole tree, one node per line with indentation.
// Historical nodes reachable through several parents (the DAG property of
// §3.5) are annotated and expanded only once.
func (t *Tree) Dump() (string, error) {
	var b strings.Builder
	err := t.walkDAG(func(r dagRef) error {
		indent := strings.Repeat("  ", r.depth)
		if r.n == nil {
			fmt.Fprintf(&b, "%s%s (shared, shown above)\n", indent, r.addr)
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, viewOf(r.n))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}

// dagRef is one reference a DAG walk follows: the root, or an entry of
// an index node.
type dagRef struct {
	addr storage.Addr
	rect record.Rect // the rectangle of the node at addr
	// n is the decoded node on its first reference, nil on later ones.
	n *node
	// from is the index node holding the reference and e its entry; e
	// is nil for the root.
	from  storage.Addr
	e     *entry
	depth int // the root's is 0
	refs  int // references that have reached addr so far, this one included
}

// walkDAG calls visit for every reference reachable from the root, in
// pre-order. Each node is decoded once and walked below only on its
// first reference, so a historical node shared by several parents (§3.5)
// costs one decode however many reach it. A node reached at two depths
// fails the walk: only a root split adds a level (invariant 8).
func (t *Tree) walkDAG(visit func(dagRef) error) error {
	type seenNode struct {
		rect        record.Rect
		depth, refs int
	}
	seen := make(map[storage.Addr]*seenNode)
	var walk func(r dagRef) error
	walk = func(r dagRef) error {
		if s, ok := seen[r.addr]; ok {
			if s.depth != r.depth {
				return fmt.Errorf("node %s: reached at depths %d and %d", r.addr, s.depth, r.depth)
			}
			s.refs++
			r.rect, r.refs = s.rect, s.refs
			return visit(r)
		}
		n, err := t.readNode(r.addr)
		if err != nil {
			if r.e != nil {
				return fmt.Errorf("index %s: reading child %s: %w", r.from, r.addr, err)
			}
			return err
		}
		// The clone lets the page buffer go once the subtree is walked.
		seen[r.addr] = &seenNode{rect: n.rect.Clone(), depth: r.depth, refs: 1}
		r.rect, r.n, r.refs = n.rect, n, 1
		if err := visit(r); err != nil {
			return err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if err := walk(dagRef{addr: e.child, from: n.addr, e: e, depth: r.depth + 1}); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(dagRef{addr: t.root})
}
