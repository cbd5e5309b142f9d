package experiments

// The space and cost measures of the paper's evaluation plan: total
// space use, space use in the current database, amount of redundancy
// (§5), and the storage cost function of §3.2,
//
//	CS = SpaceM × CM + SpaceO × CO,
//
// where CM and CO are the per-byte costs of magnetic and optical storage.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// SpaceReport summarizes space consumption after a workload.
type SpaceReport struct {
	// SpaceM: bytes of magnetic (current database) storage in use.
	MagneticBytes uint64
	// SpaceO: bytes of optical (historical database) storage burned.
	WORMBytes uint64
	// PayloadBytes: WORM bytes holding real data (vs. sector waste).
	PayloadBytes uint64
	// SectorUtilization = PayloadBytes / WORMBytes (1.0 when no WORM
	// space is used).
	SectorUtilization float64

	// Versions written by the workload (distinct logical versions).
	DistinctVersions uint64
	// RedundantVersions copied by clause 3 of the Time-Split Rule.
	RedundantVersions uint64
	// RedundantIndexEntries duplicated by the index split rules.
	RedundantIndexEntries uint64

	CurrentNodes    uint64
	HistoricalNodes uint64
}

// collectSpace builds a SpaceReport from the tree and device statistics.
func collectSpace(tree core.Stats, mag storage.MagneticStats, worm storage.WORMStats, pageSize, sectorSize int) SpaceReport {
	return SpaceReport{
		MagneticBytes:         mag.BytesInUse(pageSize),
		WORMBytes:             worm.BytesBurned(sectorSize),
		PayloadBytes:          worm.PayloadBytes,
		SectorUtilization:     worm.Utilization(sectorSize),
		DistinctVersions:      tree.Inserts,
		RedundantVersions:     tree.RedundantVersions,
		RedundantIndexEntries: tree.RedundantIndexEntries,
		CurrentNodes:          tree.CurrentNodes,
		HistoricalNodes:       tree.HistoricalNodes,
	}
}

// TotalBytes returns SpaceM + SpaceO.
func (r SpaceReport) TotalBytes() uint64 { return r.MagneticBytes + r.WORMBytes }

// Cost evaluates the §3.2 cost function with per-byte costs cm and co.
func (r SpaceReport) Cost(cm, co float64) float64 {
	return float64(r.MagneticBytes)*cm + float64(r.WORMBytes)*co
}

// RedundancyRatio returns redundant version copies per distinct version.
func (r SpaceReport) RedundancyRatio() float64 {
	if r.DistinctVersions == 0 {
		return 0
	}
	return float64(r.RedundantVersions) / float64(r.DistinctVersions)
}

// String renders the report as one table row.
func (r SpaceReport) String() string {
	return fmt.Sprintf("mag=%dB worm=%dB total=%dB util=%.3f redundancy=%.3f (versions=%d redundant=%d idx-dup=%d nodes=%d+%d)",
		r.MagneticBytes, r.WORMBytes, r.TotalBytes(), r.SectorUtilization,
		r.RedundancyRatio(), r.DistinctVersions, r.RedundantVersions,
		r.RedundantIndexEntries, r.CurrentNodes, r.HistoricalNodes)
}
