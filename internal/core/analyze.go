package core

import (
	"fmt"
	"strings"
)

// LevelStats summarizes one level of the tree (level 0 = leaves).
type LevelStats struct {
	Level           int
	CurrentNodes    int
	HistoricalNodes int
	CurrentBytes    int
	HistoricalBytes int
	Versions        int // leaf levels
	Entries         int // index levels
	// AvgCurrentFill is current node bytes / leaf-or-index capacity.
	AvgCurrentFill float64
}

// Analysis is a structural profile of the whole tree.
type Analysis struct {
	Levels []LevelStats // index 0 = leaf level
	// SharedHistorical counts historical nodes reachable through more
	// than one parent (the DAG measure).
	SharedHistorical int
}

// Analyze walks the tree and produces a per-level structural profile —
// the inspection behind cmd/tsbdump's fill-factor report.
func (t *Tree) Analyze() (Analysis, error) {
	// Every leaf lies at depth Height-1 (invariant 8 of CheckInvariants),
	// so a node's level is its height above that depth.
	height := t.stats.Height
	levels := make([]LevelStats, height)
	for i := range levels {
		levels[i].Level = i
	}
	shared := 0
	err := t.walkDAG(func(r dagRef) error {
		if r.n == nil {
			if r.refs == 2 && r.addr.IsWORM() {
				shared++
			}
			return nil
		}
		n := r.n
		lvl := height - 1 - r.depth
		if lvl < 0 || n.leaf != (lvl == 0) {
			return fmt.Errorf("core: node %s at depth %d in a tree of height %d (invariant 8)", r.addr, r.depth, height)
		}
		ls := &levels[lvl]
		size := t.size(n)
		if r.addr.IsWORM() {
			ls.HistoricalNodes++
			ls.HistoricalBytes += size
		} else {
			ls.CurrentNodes++
			ls.CurrentBytes += size
		}
		ls.Versions += len(n.versions)
		ls.Entries += len(n.entries)
		return nil
	})
	if err != nil {
		return Analysis{}, err
	}
	for i := range levels {
		cap := t.cfg.IndexCapacity
		if i == 0 {
			cap = t.cfg.LeafCapacity
		}
		if levels[i].CurrentNodes > 0 && cap > 0 {
			levels[i].AvgCurrentFill = float64(levels[i].CurrentBytes) /
				float64(levels[i].CurrentNodes*cap)
		}
	}
	return Analysis{Levels: levels, SharedHistorical: shared}, nil
}

// String renders the analysis as a small table.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "level  cur-nodes  hist-nodes  cur-fill  versions  entries\n")
	for i := len(a.Levels) - 1; i >= 0; i-- {
		l := a.Levels[i]
		fmt.Fprintf(&b, "%-6d %-10d %-11d %-9.2f %-9d %d\n",
			l.Level, l.CurrentNodes, l.HistoricalNodes, l.AvgCurrentFill, l.Versions, l.Entries)
	}
	fmt.Fprintf(&b, "historical nodes with multiple parents (DAG): %d\n", a.SharedHistorical)
	return b.String()
}
