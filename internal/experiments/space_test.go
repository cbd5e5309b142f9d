package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func TestCollectAndCost(t *testing.T) {
	tree := core.Stats{
		Inserts:           100,
		RedundantVersions: 25,
		CurrentNodes:      4,
		HistoricalNodes:   6,
	}
	mag := storage.MagneticStats{PagesInUse: 10}
	worm := storage.WORMStats{SectorsBurned: 20, PayloadBytes: 18000, WastedBytes: 2480}
	r := collectSpace(tree, mag, worm, 4096, 1024)

	if r.MagneticBytes != 10*4096 {
		t.Errorf("MagneticBytes = %d", r.MagneticBytes)
	}
	if r.WORMBytes != 20*1024 {
		t.Errorf("WORMBytes = %d", r.WORMBytes)
	}
	if r.TotalBytes() != r.MagneticBytes+r.WORMBytes {
		t.Error("TotalBytes mismatch")
	}
	if got := r.Cost(1.0, 0.1); got != float64(r.MagneticBytes)+0.1*float64(r.WORMBytes) {
		t.Errorf("Cost = %v", got)
	}
	if r.RedundancyRatio() != 0.25 {
		t.Errorf("RedundancyRatio = %v", r.RedundancyRatio())
	}
	if r.SectorUtilization <= 0.8 || r.SectorUtilization > 1.0 {
		t.Errorf("SectorUtilization = %v", r.SectorUtilization)
	}
	if !strings.Contains(r.String(), "redundancy=0.250") {
		t.Errorf("String() = %s", r)
	}
}

func TestZeroReport(t *testing.T) {
	r := collectSpace(core.Stats{}, storage.MagneticStats{}, storage.WORMStats{}, 4096, 1024)
	if r.RedundancyRatio() != 0 {
		t.Error("empty redundancy should be 0")
	}
	if r.SectorUtilization != 1 {
		t.Error("unused WORM should report utilization 1")
	}
	if r.Cost(1, 1) != 0 {
		t.Error("empty cost should be 0")
	}
}

func TestCostMonotoneInCO(t *testing.T) {
	r := SpaceReport{MagneticBytes: 1000, WORMBytes: 5000}
	if r.Cost(1, 0.1) >= r.Cost(1, 0.5) {
		t.Error("cost must grow with CO")
	}
}
