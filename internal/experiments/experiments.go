// Package experiments implements the paper's evaluation plan. The SIGMOD
// 1989 TSB-tree paper has no result tables of its own; §3.2 and §5 state
// what the authors' NSF-funded implementation would measure:
//
//	"We expect to measure total space use, space use in the current
//	 database, and amount of redundancy, under different splitting
//	 policies and with different rates of update versus insertion."
//
// plus the storage cost function CS = SpaceM·CM + SpaceO·CO and the
// qualitative claims of §1 (sector utilization, access costs, lock-free
// read-only transactions). Experiments E1-E9 realize that plan;
// cmd/tsbench prints their tables.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bplus"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/wobt"
	"repro/internal/workload"
)

// Params sizes the experiments. The defaults run in seconds; cmd/tsbench
// can scale them up.
type Params struct {
	Ops        int   // operations per run (default 20000)
	ValueSize  int   // record payload bytes (default 32)
	PageSize   int   // magnetic page bytes (default 4096)
	SectorSize int   // WORM sector bytes (default 1024)
	Seed       int64 // workload seed (default 1)
	// Dist selects which existing keys updates target (default Uniform).
	Dist workload.Distribution
	// BufferPages, when nonzero, places an LRU page cache of that many
	// pages between the TSB-tree and the magnetic device.
	BufferPages int
}

func (p Params) withDefaults() Params {
	if p.Ops == 0 {
		p.Ops = 20000
	}
	if p.ValueSize == 0 {
		p.ValueSize = 32
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.SectorSize == 0 {
		p.SectorSize = 1024
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// PolicyNames lists the TSB-tree policies compared throughout, in display
// order.
var PolicyNames = []string{"tsb-now", "tsb-lastupdate", "tsb-median", "tsb-keypref", "tsb-timepref"}

// PolicyByName maps experiment policy names to core policies.
func PolicyByName(name string) (core.Policy, bool) {
	switch name {
	case "tsb-now":
		return core.PolicyWOBTLike, true
	case "tsb-lastupdate":
		return core.PolicyLastUpdate, true
	case "tsb-median":
		return core.Policy{KeySplitFraction: 0.5, SplitTime: core.SplitAtMedian, IndexKeySplitFraction: 0.5}, true
	case "tsb-keypref":
		return core.PolicyKeyPref, true
	case "tsb-timepref":
		return core.PolicyTimePref, true
	default:
		return core.Policy{}, false
	}
}

// UpdateFractions is the sweep of §5's "different rates of update versus
// insertion".
var UpdateFractions = []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0}

// initialKeys pre-seeds a real key population so update-heavy workloads
// are not a degenerate hotspot.
func initialKeys(p Params) int {
	n := p.Ops / 20
	if n < 16 {
		n = 16
	}
	return n
}

// drive feeds insert the one workload every structure is compared on:
// the pre-seeded key population, then p.Ops operations at update
// fraction u, each stamped with the next timestamp (a delete arrives as
// a tombstone).
func drive(p Params, u float64, insert func(record.Version) error) error {
	gen := workload.New(workload.Config{
		Ops: p.Ops, UpdateFraction: u, ValueSize: p.ValueSize, Seed: p.Seed,
		Dist: p.Dist, InitialKeys: initialKeys(p),
	})
	ts := record.Timestamp(0)
	apply := func(op workload.Op) error {
		ts++
		return insert(record.Version{Key: op.Key, Time: ts, Value: op.Value, Tombstone: op.Delete})
	}
	for _, op := range gen.InitialOps() {
		if err := apply(op); err != nil {
			return err
		}
	}
	for op, more := gen.Next(); more; op, more = gen.Next() {
		if err := apply(op); err != nil {
			return err
		}
	}
	return nil
}

// TSBRun is the result of one TSB-tree workload run.
type TSBRun struct {
	Policy         string
	UpdateFraction float64
	Report         SpaceReport
	Tree           *core.Tree
	Mag            *storage.MagneticDisk
	WORM           *storage.WORMDisk
}

// RunTSB drives one workload against a fresh TSB-tree.
func RunTSB(policyName string, u float64, p Params) (*TSBRun, error) {
	p = p.withDefaults()
	policy, ok := PolicyByName(policyName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown policy %q", policyName)
	}
	mag := storage.NewMagneticDisk(p.PageSize, storage.DefaultCostModel())
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: p.SectorSize, Cost: storage.DefaultCostModel()})
	var pages storage.PageStore = mag
	if p.BufferPages > 0 {
		pages = buffer.NewPool(mag, p.BufferPages)
	}
	tree, err := core.New(pages, worm, core.Config{Policy: policy, MaxKeySize: 32, MaxValueSize: p.ValueSize + 16})
	if err != nil {
		return nil, err
	}
	if err := drive(p, u, tree.Insert); err != nil {
		return nil, err
	}
	return &TSBRun{
		Policy:         policyName,
		UpdateFraction: u,
		Report:         collectSpace(tree.Stats(), mag.Stats(), worm.Stats(), p.PageSize, p.SectorSize),
		Tree:           tree,
		Mag:            mag,
		WORM:           worm,
	}, nil
}

// WOBTRun is the result of one Write-Once B-tree workload run.
type WOBTRun struct {
	UpdateFraction float64
	WORM           *storage.WORMDisk
	Tree           *wobt.Tree
	Stats          wobt.Stats
}

// RunWOBT drives the same workload against Easton's WOBT, entirely on the
// write-once device (the paper's §2 baseline).
func RunWOBT(u float64, p Params) (*WOBTRun, error) {
	p = p.withDefaults()
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: p.SectorSize, Cost: storage.DefaultCostModel()})
	tree, err := wobt.New(worm, wobt.Config{NodeSectors: 8})
	if err != nil {
		return nil, err
	}
	if err := drive(p, u, tree.Insert); err != nil {
		return nil, err
	}
	return &WOBTRun{UpdateFraction: u, WORM: worm, Tree: tree, Stats: tree.Stats()}, nil
}

// RunBPlus drives the workload against the single-version B+-tree (current
// database only; history is lost on update).
func RunBPlus(u float64, p Params) (*storage.MagneticDisk, *bplus.Tree, error) {
	p = p.withDefaults()
	mag := storage.NewMagneticDisk(p.PageSize, storage.DefaultCostModel())
	tree, err := bplus.New(mag, bplus.Config{MaxKeySize: 32, MaxValueSize: p.ValueSize + 16})
	if err != nil {
		return nil, nil, err
	}
	err = drive(p, u, func(v record.Version) error {
		if v.Tombstone {
			_, err := tree.Delete(v.Key)
			return err
		}
		return tree.Put(v.Key, v.Value)
	})
	if err != nil {
		return nil, nil, err
	}
	return mag, tree, nil
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Remarks []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, r := range t.Remarks {
		fmt.Fprintf(&b, "-- %s\n", r)
	}
	return b.String()
}

func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func kb(v uint64) string    { return fmt.Sprintf("%d", v/1024) }
func num(v uint64) string   { return fmt.Sprintf("%d", v) }
func frac(v float64) string { return fmt.Sprintf("%.1f", v) }
