package repro_test

// Ablation benchmarks for the reproduction's own design choices: the
// buffer pool in front of the magnetic disk, the magnetic page size, the
// WOBT's fixed node extent, and the TSB-tree's index-split preference.

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/wobt"
	"repro/internal/workload"
)

// BenchmarkAblationBufferPool measures the page-cache hit rate and the
// device reads avoided across pool sizes, for a mixed workload plus a
// query phase.
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, pages := range []int{8, 32, 128, 512} {
		pages := pages
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mag := storage.NewMagneticDisk(4096, storage.DefaultCostModel())
				pool := buffer.NewPool(mag, pages)
				worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 1024})
				tree, err := core.New(pool, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.New(workload.Config{
					Ops: 4000, UpdateFraction: 0.5, ValueSize: 32, Seed: 1, InitialKeys: 200,
				})
				ts := record.Timestamp(0)
				for _, op := range gen.InitialOps() {
					ts++
					if err := tree.Insert(record.Version{Key: op.Key, Time: ts, Value: op.Value}); err != nil {
						b.Fatal(err)
					}
				}
				for {
					op, more := gen.Next()
					if !more {
						break
					}
					ts++
					if err := tree.Insert(record.Version{Key: op.Key, Time: ts, Value: op.Value, Tombstone: op.Delete}); err != nil {
						b.Fatal(err)
					}
				}
				for q := 0; q < 2000; q++ {
					if _, _, err := tree.Get(workload.KeyName(q % gen.KeysCreated())); err != nil {
						b.Fatal(err)
					}
				}
				if i == b.N-1 {
					st := pool.Stats()
					b.ReportMetric(st.HitRate(), "hit-rate")
					b.ReportMetric(float64(mag.Stats().Reads), "device-reads")
				}
			}
		})
	}
}

// BenchmarkAblationPageSize sweeps the magnetic page size: bigger pages
// mean fewer, fatter nodes (fewer splits, more bytes rewritten per
// update).
func BenchmarkAblationPageSize(b *testing.B) {
	for _, pageSize := range []int{1024, 4096, 16384} {
		pageSize := pageSize
		b.Run(fmt.Sprintf("page=%d", pageSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mag := storage.NewMagneticDisk(pageSize, storage.DefaultCostModel())
				worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 1024})
				tree, err := core.New(mag, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
				if err != nil {
					b.Fatal(err)
				}
				ts := record.Timestamp(0)
				for op := 0; op < 4000; op++ {
					ts++
					err := tree.Insert(record.Version{
						Key:   workload.KeyName(op % 500),
						Time:  ts,
						Value: []byte("ablation-payload-0123456789abcdef"),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if i == b.N-1 {
					st := tree.Stats()
					b.ReportMetric(float64(mag.Stats().PagesInUse), "pages")
					b.ReportMetric(float64(st.LeafTimeSplits+st.LeafKeySplits), "leaf-splits")
					b.ReportMetric(float64(st.RedundantVersions), "redundant")
				}
			}
		})
	}
}

// BenchmarkAblationWOBTNodeSectors sweeps the WOBT's fixed extent size:
// the paper's baseline pays for every incremental sector regardless, but
// bigger extents split (and therefore recopy) less often.
func BenchmarkAblationWOBTNodeSectors(b *testing.B) {
	for _, sectors := range []int{4, 8, 16} {
		sectors := sectors
		b.Run(fmt.Sprintf("sectors=%d", sectors), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 1024})
				tree, err := wobt.New(worm, wobt.Config{NodeSectors: sectors})
				if err != nil {
					b.Fatal(err)
				}
				ts := record.Timestamp(0)
				for op := 0; op < 3000; op++ {
					ts++
					err := tree.Insert(record.Version{
						Key:   workload.KeyName(op % 400),
						Time:  ts,
						Value: []byte("ablation-payload"),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if i == b.N-1 {
					st := worm.Stats()
					b.ReportMetric(float64(st.SectorsBurned), "sectors-burned")
					b.ReportMetric(st.Utilization(1024), "utilization")
					b.ReportMetric(float64(tree.Stats().LeafCopies), "copies")
				}
			}
		})
	}
}

// BenchmarkAblationIndexSplitPreference sweeps the index-node split
// threshold between always-keyspace and always-time, reporting how much
// index structure migrates.
func BenchmarkAblationIndexSplitPreference(b *testing.B) {
	for _, frac := range []float64{0.0, 0.5, 1.0} {
		frac := frac
		b.Run(fmt.Sprintf("indexTimeFrac=%.1f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mag := storage.NewMagneticDisk(1024, storage.DefaultCostModel())
				worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
				tree, err := core.New(mag, worm, core.Config{
					Policy: core.Policy{
						KeySplitFraction:      0.5,
						SplitTime:             core.SplitAtLastUpdate,
						IndexKeySplitFraction: frac,
					},
					MaxKeySize: 32,
				})
				if err != nil {
					b.Fatal(err)
				}
				ts := record.Timestamp(0)
				for op := 0; op < 6000; op++ {
					ts++
					err := tree.Insert(record.Version{
						Key:   workload.KeyName(op % 300),
						Time:  ts,
						Value: []byte("payload-0123456789"),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := tree.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					st := tree.Stats()
					b.ReportMetric(float64(st.IndexTimeSplits), "idx-time")
					b.ReportMetric(float64(st.IndexKeySplits), "idx-key")
					b.ReportMetric(float64(mag.Stats().PagesInUse), "mag-pages")
				}
			}
		})
	}
}
