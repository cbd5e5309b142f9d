package core

// Executable reproductions of the paper's structural figures involving the
// TSB-tree (Figures 5-9). Each test replays the figure's scenario and
// asserts the structural outcome the figure illustrates. cmd/figures
// renders the same scenarios for human inspection.

import (
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// figureTree builds a tree with tiny nodes (a handful of records each),
// like the nodes drawn in the paper.
func figureTree(t *testing.T, p Policy) (*Tree, *storage.WORMDisk) {
	t.Helper()
	return figureTreeCap(t, p, 80)
}

func figureTreeCap(t *testing.T, p Policy, leafCap int) (*Tree, *storage.WORMDisk) {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := New(mag, worm, Config{
		Policy:        p,
		MaxKeySize:    4,
		MaxValueSize:  8,
		LeafCapacity:  leafCap,
		IndexCapacity: 560,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree, worm
}

// currentLeafView is the view of the current leaf responsible for k.
func currentLeafView(t *testing.T, tree *Tree, k record.Key) NodeView {
	t.Helper()
	n, err := tree.currentLeaf(k)
	if err != nil {
		t.Fatal(err)
	}
	return viewOf(n)
}

// countNodes counts the distinct current (magnetic) and historical
// (WORM) nodes reachable from the root.
func countNodes(t *testing.T, tree *Tree) (current, historical int) {
	t.Helper()
	err := tree.walkDAG(func(r dagRef) error {
		switch {
		case r.n == nil:
		case r.addr.IsWORM():
			historical++
		default:
			current++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return current, historical
}

func leafValues(v NodeView) map[string]string {
	out := make(map[string]string)
	for _, ver := range v.Versions {
		out[fmt.Sprintf("%s@%s", ver.Key, ver.Time)] = string(ver.Value)
	}
	return out
}

// TestFigure5 reproduces Figure 5: a data node receiving only insertions
// splits entirely by key; the new index entry's timestamp equals the
// previous entry's timestamp (the node's start), and nothing migrates.
func TestFigure5(t *testing.T) {
	tree, worm := figureTree(t, PolicyWOBTLike)
	put(t, tree, "50", 2, "Joe")
	put(t, tree, "90", 5, "Pete")
	put(t, tree, "120", 7, "Alice")
	put(t, tree, "110", 8, "Sue")
	// Keep inserting fresh keys until the leaf splits.
	extra := []struct {
		k  string
		ts uint64
		v  string
	}{{"60", 9, "Ron"}, {"80", 10, "Joan"}, {"70", 11, "Bill"}}
	for _, e := range extra {
		put(t, tree, e.k, e.ts, e.v)
		if tree.Stats().LeafKeySplits > 0 {
			break
		}
	}
	st := tree.Stats()
	if st.LeafKeySplits == 0 {
		t.Fatalf("insert-only overflow must key split: %+v", st)
	}
	if st.LeafTimeSplits != 0 || worm.Stats().SectorsBurned != 0 {
		t.Fatalf("pure key split must not migrate: %+v", st)
	}
	root, err := tree.View(tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf || len(root.Entries) != 2 {
		t.Fatalf("expected a root over two leaves, got %s", root)
	}
	for _, e := range root.Entries {
		// "The timestamp in the new index entry is the same as the
		// timestamp of the previous index entry": both halves keep the
		// original start time.
		if e.Rect.Start != record.TimeZero || !e.Rect.IsCurrent() {
			t.Errorf("entry %s: want start 0 and open end", e.Rect)
		}
	}
	checkOK(t, tree)
}

// TestFigure6 reproduces Figure 6: a time split of a node holding
// 60/Joe@1, 60/Pete@2, 60/Mary@4. Splitting at T=4 yields no redundancy;
// splitting at T=5 (or later, as the WOBT's "now" forces) duplicates Mary
// into both the historical and the current node.
func TestFigure6(t *testing.T) {
	scenario := func(choice SplitTimeChoice) (*Tree, *storage.WORMDisk, Stats) {
		tree, worm := figureTreeCap(t, Policy{
			KeySplitFraction: 0.5, SplitTime: choice, IndexKeySplitFraction: 0.5,
		}, 60)
		put(t, tree, "60", 1, "Joe")
		put(t, tree, "60", 2, "Pete")
		put(t, tree, "60", 4, "Mary")
		put(t, tree, "90", 6, "Alice") // triggers the split
		if tree.Stats().LeafTimeSplits == 0 {
			t.Fatalf("scenario must time split (choice=%v): %+v", choice, tree.Stats())
		}
		checkOK(t, tree)
		return tree, worm, tree.Stats()
	}

	// T = 4 (the last update): Mary@4 is >= T, so she stays current
	// only. No redundancy.
	treeA, _, stA := scenario(SplitAtLastUpdate)
	if stA.RedundantVersions != 0 {
		t.Errorf("T=4 split should have no redundancy, got %d", stA.RedundantVersions)
	}
	if stA.VersionsMigrated != 2 {
		t.Errorf("T=4 split should migrate Joe and Pete only, got %d", stA.VersionsMigrated)
	}
	vals := leafValues(currentLeafView(t, treeA, record.StringKey("60")))
	if vals["60@4"] != "Mary" || vals["90@6"] != "Alice" || len(vals) != 2 {
		t.Errorf("T=4 current node = %v, want {Mary@4, Alice@6}", vals)
	}

	// T = now (6): Mary@4 < T migrates, and being alive at T she is
	// copied back — "the record with Mary is in both the historical and
	// current nodes".
	treeB, _, stB := scenario(SplitAtNow)
	if stB.RedundantVersions != 1 {
		t.Errorf("T=now split should duplicate exactly Mary, got %d", stB.RedundantVersions)
	}
	if stB.VersionsMigrated != 3 {
		t.Errorf("T=now split should migrate all three versions, got %d", stB.VersionsMigrated)
	}
	valsB := leafValues(currentLeafView(t, treeB, record.StringKey("60")))
	if valsB["60@4"] != "Mary" || valsB["90@6"] != "Alice" {
		t.Errorf("T=now current node = %v, want Mary copied in", valsB)
	}
	// Historical node also holds Mary: her history dedupes to 3 versions.
	h, _ := treeB.History(record.StringKey("60"))
	if len(h) != 3 {
		t.Errorf("History(60) = %d versions, want 3", len(h))
	}
}

// driveUntil runs a deterministic mixed workload until pred is true or the
// op budget is exhausted, returning whether pred held.
func driveUntil(t *testing.T, tree *Tree, nKeys int, updateEvery int, pred func(Stats) bool, maxOps int) bool {
	t.Helper()
	ts := tree.Now()
	for op := 0; op < maxOps; op++ {
		ts++
		var key string
		if updateEvery > 0 && op%updateEvery != 0 {
			key = fmt.Sprintf("k%03d", op%nKeys)
		} else {
			key = fmt.Sprintf("k%03d", (op*13)%nKeys)
		}
		err := tree.Insert(record.Version{
			Key: record.StringKey(key), Time: ts, Value: []byte(fmt.Sprintf("v%d", ts)),
		})
		if err != nil {
			t.Fatalf("insert %s@%d: %v", key, ts, err)
		}
		if pred(tree.Stats()) {
			return true
		}
	}
	return pred(tree.Stats())
}

// TestFigure7 reproduces the phenomenon of Figure 7: an index-node
// keyspace split where a historical entry's key range strictly contains
// the split value, so the entry is duplicated into both new index nodes
// (rule 4 of the Index Node Keyspace Split Rule).
func TestFigure7(t *testing.T) {
	// Leaves time split eagerly (creating historical entries whose key
	// ranges are coarse), then later key splits refine the ranges, and
	// index nodes prefer keyspace splits.
	tree, _ := figureTree(t, Policy{
		KeySplitFraction: 0.5, SplitTime: SplitAtNow, IndexKeySplitFraction: 0.0,
	})
	ok := driveUntil(t, tree, 32, 2, func(s Stats) bool {
		return s.IndexKeySplits > 0 && s.RedundantIndexEntries > 0
	}, 8000)
	if !ok {
		t.Fatalf("workload never produced a rule-4 duplication: %+v", tree.Stats())
	}
	checkOK(t, tree)
	// Find a WORM child referenced by more than one index node: the DAG
	// property ("only historical nodes have more than one parent").
	parents := make(map[storage.Addr]map[storage.Addr]bool)
	var walk func(addr storage.Addr) error
	seen := make(map[storage.Addr]bool)
	walk = func(addr storage.Addr) error {
		if seen[addr] {
			return nil
		}
		seen[addr] = true
		v, err := tree.View(addr)
		if err != nil {
			return err
		}
		for _, e := range v.Entries {
			if parents[e.Child] == nil {
				parents[e.Child] = make(map[storage.Addr]bool)
			}
			parents[e.Child][addr] = true
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tree.Root()); err != nil {
		t.Fatal(err)
	}
	multi := 0
	for child, ps := range parents {
		if len(ps) > 1 {
			multi++
			if !child.IsWORM() {
				t.Errorf("current node %s has %d parents; only historical nodes may", child, len(ps))
			}
		}
	}
	if multi == 0 {
		t.Error("expected at least one shared historical node (DAG property)")
	}
}

// TestFigure8 reproduces Figure 8: a local index time split. One index
// node migrates to the optical disk; no lower node is touched, and every
// entry in the migrated index node references the historical database.
func TestFigure8(t *testing.T) {
	tree, _ := figureTree(t, Policy{
		KeySplitFraction: 0.5, SplitTime: SplitAtNow, IndexKeySplitFraction: 1.0,
	})
	ok := driveUntil(t, tree, 12, 1, func(s Stats) bool {
		return s.IndexTimeSplits > 0
	}, 4000)
	if !ok {
		t.Fatalf("workload never index-time-split: %+v", tree.Stats())
	}
	checkOK(t, tree) // includes: historical index nodes reference only WORM children
	// Verify a WORM index node exists and all its entries point at WORM.
	found := false
	seen := make(map[storage.Addr]bool)
	var walk func(addr storage.Addr) error
	walk = func(addr storage.Addr) error {
		if seen[addr] {
			return nil
		}
		seen[addr] = true
		v, err := tree.View(addr)
		if err != nil {
			return err
		}
		if !v.Leaf && v.Addr.IsWORM() {
			found = true
			for _, e := range v.Entries {
				if !e.Child.IsWORM() {
					t.Errorf("historical index node %s references current node %s", v.Addr, e.Child)
				}
			}
		}
		for _, e := range v.Entries {
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tree.Root()); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("no historical index node found after an index time split")
	}
}

// TestFigure9 reproduces Figure 9: an index node that wants to time split
// but cannot, because a current data node created at the index node's own
// start time blocks it. The index node keyspace splits instead and the
// blocking leaf is marked to be time split at the next opportunity.
func TestFigure9(t *testing.T) {
	tree, _ := figureTree(t, Policy{
		KeySplitFraction: 0.5, SplitTime: SplitAtNow, IndexKeySplitFraction: 1.0,
	})
	// Phase 1: distinct keys only. Leaves key split, so every leaf entry
	// keeps start time 0 — including in any index node created later.
	for i := 0; i < 6; i++ {
		put(t, tree, fmt.Sprintf("a%02d", i), uint64(i+1), "x")
	}
	// Phase 2: hammer updates on the upper half of the key space. Leaves
	// there time split; the untouched lower leaves keep start 0 and
	// block local index time splits.
	ts := uint64(100)
	for op := 0; tree.Stats().MarkedLeaves == 0 && op < 4000; op++ {
		ts++
		put(t, tree, fmt.Sprintf("z%02d", op%8), ts, fmt.Sprintf("v%d", ts))
	}
	st := tree.Stats()
	if st.MarkedLeaves == 0 {
		t.Fatalf("no leaf was ever marked: %+v", st)
	}
	if tree.MarkedLeafCount() == 0 {
		t.Fatal("marked set empty despite MarkedLeaves stat")
	}
	checkOK(t, tree)
	// Phase 3: touch the blocked region; the marked leaf is force-split.
	for i := 0; i < 6 && tree.Stats().ForcedTimeSplits == 0; i++ {
		ts++
		put(t, tree, fmt.Sprintf("a%02d", i), ts, "touch")
	}
	if tree.Stats().ForcedTimeSplits == 0 {
		t.Fatalf("marked leaf was never force-split: %+v", tree.Stats())
	}
	checkOK(t, tree)
}
