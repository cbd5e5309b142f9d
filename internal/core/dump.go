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

// ViewRoot returns a read-only snapshot of the root node.
func (t *Tree) ViewRoot() (NodeView, error) { return t.View(t.root) }

// CurrentLeafView returns a snapshot of the current leaf responsible for
// key k.
func (t *Tree) CurrentLeafView(k record.Key) (NodeView, error) {
	n, err := t.currentLeaf(k)
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
	seen := make(map[storage.Addr]bool)
	var walk func(addr storage.Addr, depth int) error
	walk = func(addr storage.Addr, depth int) error {
		n, err := t.readNode(addr)
		if err != nil {
			return err
		}
		indent := strings.Repeat("  ", depth)
		if seen[addr] {
			fmt.Fprintf(&b, "%s%s (shared, shown above)\n", indent, addr)
			return nil
		}
		seen[addr] = true
		fmt.Fprintf(&b, "%s%s\n", indent, viewOf(n))
		for _, e := range n.entries {
			if err := walk(e.child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return "", err
	}
	return b.String(), nil
}

// CountNodes walks the tree and returns the number of distinct current
// (magnetic) and historical (WORM) nodes reachable from the root.
func (t *Tree) CountNodes() (current, historical int, err error) {
	seen := make(map[storage.Addr]bool)
	var walk func(addr storage.Addr) error
	walk = func(addr storage.Addr) error {
		if seen[addr] {
			return nil
		}
		seen[addr] = true
		n, err := t.readNode(addr)
		if err != nil {
			return err
		}
		if addr.IsWORM() {
			historical++
		} else {
			current++
		}
		for _, e := range n.entries {
			if err := walk(e.child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return 0, 0, err
	}
	return current, historical, nil
}
