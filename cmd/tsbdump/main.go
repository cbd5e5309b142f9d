// Command tsbdump builds a TSB-tree from a synthetic workload and dumps
// its structure, statistics, and invariant-check result — a debugging and
// inspection tool for the reproduction.
//
// Usage:
//
//	tsbdump [-policy NAME] [-ops N] [-u FRACTION] [-dump] [-seed N] [-scan N]
//	tsbdump -waldir DIR
//	tsbdump -pagedir DIR
//
// -scan N streams the first N records of the current snapshot one leaf
// page at a time (ScanPageAsOf, then each page's Resume) — pagination
// over the tree, not a materialized scan.
//
// -waldir DIR inspects a durable database directory instead: the
// checkpoint header (format, shards, clock, LSN boundary, secondary
// indexes) and every WAL segment frame by frame — LSN, transaction,
// commit time, write-set size — ending with whether the tail is clean or
// torn. It reads without locking; safe on a live or crashed directory.
//
// -pagedir DIR inspects a durable directory's device files: the
// magnetic page file page by page (written/hole, payload bytes, CRC
// status) and the WORM burn file sector by sector (payload vs. waste,
// CRC status, whether the sector is inside the checkpoint boundary or
// an orphaned post-boundary burn), ending with the burned-waste
// accounting — SpaceO, live payload, waste (dead payload from crash
// orphans counts here, not as payload), utilization. It
// reads without locking; safe on a live or crashed directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

func main() {
	policy := flag.String("policy", "tsb-lastupdate",
		"splitting policy: "+strings.Join(experiments.PolicyNames, ", "))
	ops := flag.Int("ops", 2000, "operations to apply")
	u := flag.Float64("u", 0.5, "update fraction in [0,1]")
	seed := flag.Int64("seed", 1, "workload seed")
	dump := flag.Bool("dump", false, "print the full node-by-node tree dump")
	scan := flag.Int("scan", 0, "stream the first N snapshot records one leaf page at a time")
	waldir := flag.String("waldir", "", "inspect a durable database directory (checkpoint + WAL) and exit")
	pagedir := flag.String("pagedir", "", "inspect a durable database directory's device files (page-by-page, sector-by-sector) and exit")
	flag.Parse()

	if *waldir != "" {
		if err := dumpWALDir(os.Stdout, *waldir); err != nil {
			fmt.Fprintln(os.Stderr, "tsbdump:", err)
			os.Exit(1)
		}
		return
	}
	if *pagedir != "" {
		if err := dumpPagedDir(os.Stdout, *pagedir); err != nil {
			fmt.Fprintln(os.Stderr, "tsbdump:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *policy, *ops, *u, *seed, *dump, *scan); err != nil {
		fmt.Fprintln(os.Stderr, "tsbdump:", err)
		os.Exit(1)
	}
}

// dumpWALDir prints a durable directory's checkpoint header and a
// frame-by-frame listing of every WAL segment.
func dumpWALDir(w io.Writer, dir string) error {
	info, found, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return err
	}
	if found {
		fmt.Fprintf(w, "checkpoint: format v%d, %d shard(s), clock=%s, LSN boundary %d\n",
			wal.PagedCheckpointFormatVersion, info.Shards, info.Clock, info.LSN)
		fmt.Fprintf(w, "devices: epoch %d, %d pages of %d B, %d sectors of %d B fsynced\n",
			info.Paged.Epoch, info.Paged.Alloc.Pages, info.Paged.PageSize,
			info.Paged.Burned, info.Paged.SectorSize)
		fmt.Fprintf(w, "pending at boundary: %d key(s), erased on recovery\n", len(info.Paged.Pending))
		if len(info.Secondaries) > 0 {
			fmt.Fprintf(w, "secondary indexes: %s\n", strings.Join(info.Secondaries, ", "))
		}
	} else {
		fmt.Fprintln(w, "checkpoint: none")
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		fmt.Fprintln(w, "wal: no segments")
		return nil
	}
	total := 0
	for _, seg := range segs {
		fmt.Fprintf(w, "segment %d (%s):\n", seg.Index, seg.Path)
		n := 0
		_, clean, err := wal.ReplayFile(seg.Path, 0, func(lsn uint64, rec txn.CommitRecord) error {
			covered := ""
			if found && lsn <= info.LSN {
				covered = "  [in checkpoint]"
			}
			fmt.Fprintf(w, "  lsn %-6d txn %-6d t=%-8s %d key(s)%s\n",
				lsn, rec.TxnID, rec.Time, len(rec.Versions), covered)
			n++
			return nil
		})
		if err != nil {
			return err
		}
		total += n
		if clean {
			fmt.Fprintf(w, "  tail: clean (%d record(s))\n", n)
		} else {
			fmt.Fprintf(w, "  tail: TORN after %d intact record(s) — recovery stops here\n", n)
		}
	}
	fmt.Fprintf(w, "total: %d commit record(s) across %d segment(s)\n", total, len(segs))
	return nil
}

// dumpPagedDir prints a durable directory's device files page by page
// and sector by sector, with CRC status and the burned-waste accounting.
func dumpPagedDir(w io.Writer, dir string) error {
	info, found, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return err
	}
	var boundary, metaDead uint64
	if found {
		m := info.Paged
		boundary = m.Burned
		metaDead = m.DeadBytes
		fmt.Fprintf(w, "checkpoint: format v%d, epoch %d, clock=%s, LSN boundary %d\n",
			wal.PagedCheckpointFormatVersion, m.Epoch, info.Clock, info.LSN)
		fmt.Fprintf(w, "allocator: %d pages (%d free), boundary %d burned sectors\n",
			m.Alloc.Pages, len(m.Alloc.Free), m.Burned)
		if metaDead > 0 {
			fmt.Fprintf(w, "dead payload: %d B of in-boundary burns referenced by nothing (crash orphans; permanent waste)\n",
				metaDead)
		}
	} else {
		fmt.Fprintln(w, "checkpoint: none (uninstalled or fresh directory)")
	}

	pagePath, burnPath := pagestore.Paths(dir)
	if _, err := os.Stat(pagePath + ".journal"); err == nil {
		fmt.Fprintln(w, "rollback journal: PRESENT (a checkpoint flush was in progress)")
	}
	if _, err := os.Stat(burnPath + ".journal"); err == nil {
		fmt.Fprintf(w, "retired compaction journal: PRESENT (%s.journal, left by an older release; this binary refuses the directory until the previous release opens it once)\n", burnPath)
	}

	fmt.Fprintf(w, "\npage file %s:\n", pagePath)
	written, holes, bad := 0, 0, 0
	pageSize, pages, err := pagestore.InspectPages(pagePath, func(p pagestore.PageInfo) error {
		switch {
		case !p.Written:
			holes++
			fmt.Fprintf(w, "  page %-6d hole (never flushed)\n", p.Page)
		case p.CRCOK:
			written++
			fmt.Fprintf(w, "  page %-6d %4d B  crc ok\n", p.Page, p.Len)
		default:
			bad++
			fmt.Fprintf(w, "  page %-6d %4d B  CRC BAD\n", p.Page, p.Len)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d slot(s) of %d B: %d written, %d hole(s), %d bad\n",
		pages, pageSize, written, holes, bad)

	fmt.Fprintf(w, "\nburn file %s:\n", burnPath)
	var payload, waste, orphanWaste uint64
	badSectors := 0
	sectorSize, sectors, err := pagestore.InspectSectors(burnPath, func(s pagestore.SectorInfo) error {
		mark := ""
		if found && s.Sector >= boundary {
			mark = "  [past boundary: orphan burn]"
		}
		if !s.CRCOK {
			badSectors++
			fmt.Fprintf(w, "  sector %-6d CRC BAD / torn%s\n", s.Sector, mark)
			return nil
		}
		payload += uint64(s.Len)
		fmt.Fprintf(w, "  sector %-6d %4d B payload%s\n", s.Sector, s.Len, mark)
		if found && s.Sector >= boundary {
			orphanWaste += uint64(s.Len)
		}
		return nil
	})
	if err != nil {
		return err
	}
	burnedBytes := sectors * uint64(sectorSize)
	// Dead payload — checkpoint-recorded dead burns plus orphaned
	// post-boundary burns — is unreachable and counts as waste, not
	// payload, for good. Clamped so an inconsistent (mid-crash)
	// directory still reports utilization in [0,1].
	dead := metaDead + orphanWaste
	if dead > payload {
		dead = payload
	}
	live := payload - dead
	if burnedBytes >= live {
		waste = burnedBytes - live
	}
	util := 1.0
	if burnedBytes > 0 {
		util = float64(live) / float64(burnedBytes)
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
	}
	fmt.Fprintf(w, "  %d sector(s) of %d B burned = %d B SpaceO: %d B live payload, %d B waste (%d B dead payload, utilization %.2f), %d bad\n",
		sectors, sectorSize, burnedBytes, live, waste, dead, util, badSectors)
	if orphanWaste > 0 {
		fmt.Fprintf(w, "  orphaned post-boundary burns hold %d payload byte(s) referenced by nothing (dead waste)\n", orphanWaste)
	}
	return nil
}

func run(w io.Writer, policy string, ops int, u float64, seed int64, dump bool, scan int) error {
	p := experiments.Params{Ops: ops, Seed: seed}
	res, err := experiments.RunTSB(policy, u, p)
	if err != nil {
		return err
	}
	st := res.Tree.Stats()
	fmt.Fprintf(w, "policy=%s ops=%d update-fraction=%.2f\n\n", policy, ops, u)
	fmt.Fprintf(w, "height:               %d\n", st.Height)
	fmt.Fprintf(w, "current nodes:        %d\n", st.CurrentNodes)
	fmt.Fprintf(w, "historical nodes:     %d\n", st.HistoricalNodes)
	fmt.Fprintf(w, "leaf splits:          %d time, %d key, %d time+key\n",
		st.LeafTimeSplits, st.LeafKeySplits, st.LeafTimeKeySplits)
	fmt.Fprintf(w, "index splits:         %d time (local), %d keyspace\n",
		st.IndexTimeSplits, st.IndexKeySplits)
	fmt.Fprintf(w, "redundant versions:   %d\n", st.RedundantVersions)
	fmt.Fprintf(w, "redundant idx entries:%d\n", st.RedundantIndexEntries)
	fmt.Fprintf(w, "versions migrated:    %d (%d bytes)\n", st.VersionsMigrated, st.BytesMigrated)
	fmt.Fprintf(w, "marked leaves:        %d (forced splits: %d)\n", st.MarkedLeaves, st.ForcedTimeSplits)

	fmt.Fprintf(w, "\nspace: %s\n", res.Report)

	if err := res.Tree.CheckInvariants(); err != nil {
		return fmt.Errorf("INVARIANT VIOLATION: %w", err)
	}
	fmt.Fprintln(w, "invariants: OK")

	analysis, err := res.Tree.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nper-level profile:\n%s", analysis)

	if scan > 0 {
		at := res.Tree.Now()
		fmt.Fprintf(w, "\nfirst %d records of the snapshot at t=%s (streamed):\n", scan, at)
		p, err := res.Tree.ScanPageAsOf(at, nil, record.InfiniteBound(), false)
		for ; err == nil; p, err = p.Resume() {
			vs := p.Versions[:min(scan, len(p.Versions))]
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
			if scan -= len(vs); scan == 0 || p.Resume == nil {
				break
			}
		}
		if err != nil {
			return err
		}
	}

	if dump {
		s, err := res.Tree.Dump()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\n"+s)
	}
	return nil
}
