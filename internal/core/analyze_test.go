package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestAnalyzeProfile(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	for i := 0; i < 500; i++ {
		put(t, tree, fmt.Sprintf("key%03d", i%60), uint64(i+1), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	a, err := tree.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels) != tree.Stats().Height {
		t.Fatalf("levels = %d, height = %d", len(a.Levels), tree.Stats().Height)
	}
	leaves := a.Levels[0]
	if leaves.CurrentNodes == 0 || leaves.Versions == 0 {
		t.Fatalf("leaf level empty: %+v", leaves)
	}
	if leaves.Entries != 0 {
		t.Errorf("leaf level has index entries: %+v", leaves)
	}
	top := a.Levels[len(a.Levels)-1]
	if top.CurrentNodes != 1 {
		t.Errorf("root level should have exactly one current node: %+v", top)
	}
	// Node counts across levels match the walk-based counter.
	cur, hist := countNodes(t, tree)
	sumCur, sumHist := 0, 0
	for _, l := range a.Levels {
		sumCur += l.CurrentNodes
		sumHist += l.HistoricalNodes
	}
	if sumCur != cur || sumHist != hist {
		t.Errorf("analysis nodes %d+%d, walk %d+%d", sumCur, sumHist, cur, hist)
	}
	// Fill factors are sane.
	for _, l := range a.Levels {
		if l.AvgCurrentFill < 0 || l.AvgCurrentFill > 1.05 {
			t.Errorf("level %d fill %.2f out of range", l.Level, l.AvgCurrentFill)
		}
	}
	if !strings.Contains(a.String(), "cur-fill") {
		t.Error("analysis rendering broken")
	}
}

func TestAnalyzeEmptyTree(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	a, err := tree.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels) != 1 || a.Levels[0].CurrentNodes != 1 {
		t.Fatalf("empty tree analysis: %+v", a)
	}
}

func TestAnalyzeCountsSharedHistoricalNodes(t *testing.T) {
	// Reuse the Figure-7 driver: rule-4 duplication creates shared
	// historical nodes.
	tree, _ := figureTree(t, Policy{
		KeySplitFraction: 0.5, SplitTime: SplitAtNow, IndexKeySplitFraction: 0.0,
	})
	ok := driveUntil(t, tree, 32, 2, func(s Stats) bool {
		return s.RedundantIndexEntries > 0
	}, 8000)
	if !ok {
		t.Skip("workload produced no duplication")
	}
	a, err := tree.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a.SharedHistorical == 0 {
		t.Error("rule-4 duplication should yield shared historical nodes")
	}
	// Each walk over the DAG decodes every reachable node once, the
	// shared ones included.
	cur, hist := countNodes(t, tree)
	walks := map[string]func() error{
		"Analyze":         func() error { _, err := tree.Analyze(); return err },
		"CheckInvariants": tree.CheckInvariants,
		"Dump":            func() error { _, err := tree.Dump(); return err },
	}
	for name, walk := range walks {
		before := tree.nodeDecodes.Load()
		if err := walk(); err != nil {
			t.Fatal(err)
		}
		if got := tree.nodeDecodes.Load() - before; got != uint64(cur+hist) {
			t.Errorf("%s decoded %d nodes, want the %d reachable", name, got, cur+hist)
		}
	}
}

// TestLeafDepthInvariant checks invariant 8 of CheckInvariants, which
// Analyze's levels rely on: every leaf lies at depth Height-1. A tree
// whose recorded height disagrees with its leaves fails both.
func TestLeafDepthInvariant(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	for i := 0; i < 500; i++ {
		put(t, tree, fmt.Sprintf("key%03d", i%60), uint64(i+1), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	if tree.stats.Height < 2 {
		t.Fatalf("tree of height %d has no index level", tree.stats.Height)
	}
	for _, skew := range []int{-1, 1} {
		tree.stats.Height += skew
		if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "depth") {
			t.Errorf("height skewed by %d: CheckInvariants = %v, want a leaf-depth violation", skew, err)
		}
		if _, err := tree.Analyze(); err == nil {
			t.Errorf("height skewed by %d: Analyze succeeded", skew)
		}
		tree.stats.Height -= skew
	}
	checkOK(t, tree)
}
