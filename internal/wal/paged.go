package wal

// The checkpoint's PagedMeta frame: the metadata that reattaches the
// engine to its file-backed devices (internal/pagestore) at a
// page-consistent boundary — the page allocator, the WORM burned-sector
// boundary, the cumulative device accounting, and each tree's image
// (root pointer, clock, counters, §3.5 marked set). The pages themselves
// were flushed and fsynced into the device files before this metadata is
// installed, so recovery is: restore any torn flush from the rollback
// journal, reattach, replay the WAL tail past each tree's boundary LSN.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/storage"
)

// PagedMeta is the device/tree metadata of a checkpoint.
type PagedMeta struct {
	// Epoch numbers installed checkpoints (monotonically, from 1
	// for a new directory's first). The page file's rollback journal records
	// which epoch's image it restores; matching epochs is how recovery
	// distinguishes a torn flush from a completed one.
	Epoch uint64
	// PageSize / SectorSize fix the device geometry; reopening adopts
	// them.
	PageSize   int
	SectorSize int
	// Alloc is the magnetic page allocator at the boundary.
	Alloc pagestore.AllocState
	// MagStats / WormStats carry the cumulative device accounting
	// across reopens (SpaceM, SpaceO, burned vs. payload).
	MagStats storage.MagneticStats
	// Burned is the WORM sector count at the boundary: sectors below it
	// are fsynced and trusted; the tail past it is verified and clipped
	// on reopen.
	Burned    uint64
	WormStats storage.WORMStats
	// Shards holds one tree image per key-range shard, in shard order;
	// Secondaries one per secondary index, keyed by name.
	Shards      []core.TreeImage
	Secondaries map[string]core.TreeImage
	// Pending lists exactly the pending versions the shard images hold
	// at the boundary, each a key and its owning transaction (§4:
	// uncommitted data lives, erasable, in the current database, and a
	// pending version is its transaction's write lock). Those
	// transactions died with the crash, so recovery erases each pending
	// version before replaying the WAL tail.
	Pending []core.PendingWrite
	// GroupLSNs holds the per-shard capture boundary of a fuzzy
	// checkpoint: shard i's image and dirty pages were captured with the
	// log at GroupLSNs[i], quiescing only that shard. Replay applies a
	// committed version to its primary shard iff its record's LSN is
	// past that shard's boundary. Always one per shard: the decoder
	// refuses any other count.
	GroupLSNs []uint64
	// SecLSN is the capture boundary of the secondary indexes (all
	// captured together under the secondary latch).
	SecLSN uint64
	// DeadBytes carries the engine-level dead-burn accounting across
	// reopens: payload bytes of WORM runs nothing references (crash
	// orphans), permanent write-once waste.
	DeadBytes uint64
}

func encodeDuration(e *record.Encoder, d int64) { e.Uvarint(uint64(d)) }

func encodeTreeImage(e *record.Encoder, img core.TreeImage) {
	e.Byte(byte(img.Root.Kind))
	e.Uvarint(img.Root.Off)
	e.Uvarint(uint64(img.Root.Len))
	e.Time(img.Now)
	s := img.Stats
	for _, v := range []uint64{
		s.Inserts, s.Commits, s.Aborts, s.Deletes, s.Restamps,
		s.LeafTimeSplits, s.LeafKeySplits, s.LeafTimeKeySplits,
		s.IndexTimeSplits, s.IndexKeySplits, s.RootSplits,
		s.ForcedTimeSplits, s.MarkedLeaves, s.RedundantVersions,
		s.RedundantIndexEntries, s.VersionsMigrated, s.BytesMigrated,
		s.HistoricalNodes, s.CurrentNodes,
	} {
		e.Uvarint(v)
	}
	e.Uvarint(uint64(s.Height))
	marked := append([]uint64(nil), img.Marked...)
	sort.Slice(marked, func(i, j int) bool { return marked[i] < marked[j] })
	e.Uvarint(uint64(len(marked)))
	for _, m := range marked {
		e.Uvarint(m)
	}
	e.Uvarint(math.Float64bits(img.Policy.KeySplitFraction))
	e.Uvarint(uint64(img.Policy.SplitTime))
	e.Uvarint(math.Float64bits(img.Policy.IndexKeySplitFraction))
	e.Uvarint(uint64(img.MaxKeySize))
	e.Uvarint(uint64(img.MaxValueSize))
	e.Uvarint(uint64(img.LeafCapacity))
	e.Uvarint(uint64(img.IndexCapacity))
}

func decodeTreeImage(d *record.Decoder) core.TreeImage {
	var img core.TreeImage
	img.Root.Kind = storage.DeviceKind(d.Byte())
	img.Root.Off = d.Uvarint()
	img.Root.Len = uint32(d.Uvarint())
	img.Now = d.Time()
	dst := []*uint64{
		&img.Stats.Inserts, &img.Stats.Commits, &img.Stats.Aborts,
		&img.Stats.Deletes, &img.Stats.Restamps, &img.Stats.LeafTimeSplits,
		&img.Stats.LeafKeySplits, &img.Stats.LeafTimeKeySplits,
		&img.Stats.IndexTimeSplits, &img.Stats.IndexKeySplits,
		&img.Stats.RootSplits, &img.Stats.ForcedTimeSplits,
		&img.Stats.MarkedLeaves, &img.Stats.RedundantVersions,
		&img.Stats.RedundantIndexEntries, &img.Stats.VersionsMigrated,
		&img.Stats.BytesMigrated, &img.Stats.HistoricalNodes,
		&img.Stats.CurrentNodes,
	}
	for _, p := range dst {
		*p = d.Uvarint()
	}
	img.Stats.Height = int(d.Uvarint())
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		img.Marked = append(img.Marked, d.Uvarint())
	}
	img.Policy.KeySplitFraction = math.Float64frombits(d.Uvarint())
	img.Policy.SplitTime = core.SplitTimeChoice(d.Uvarint())
	img.Policy.IndexKeySplitFraction = math.Float64frombits(d.Uvarint())
	img.MaxKeySize = int(d.Uvarint())
	img.MaxValueSize = int(d.Uvarint())
	img.LeafCapacity = int(d.Uvarint())
	img.IndexCapacity = int(d.Uvarint())
	return img
}

func encodeMagStats(e *record.Encoder, s storage.MagneticStats) {
	e.Uvarint(s.Reads)
	e.Uvarint(s.Writes)
	e.Uvarint(s.Allocs)
	e.Uvarint(s.Frees)
	e.Uvarint(uint64(s.PagesInUse))
	e.Uvarint(uint64(s.HighWater))
	encodeDuration(e, int64(s.SimTime))
}

func decodeMagStats(d *record.Decoder) storage.MagneticStats {
	var s storage.MagneticStats
	s.Reads = d.Uvarint()
	s.Writes = d.Uvarint()
	s.Allocs = d.Uvarint()
	s.Frees = d.Uvarint()
	s.PagesInUse = int(d.Uvarint())
	s.HighWater = int(d.Uvarint())
	s.SimTime = time.Duration(d.Uvarint())
	return s
}

func encodeWormStats(e *record.Encoder, s storage.WORMStats) {
	e.Uvarint(s.SectorReads)
	e.Uvarint(s.SectorWrites)
	e.Uvarint(s.Appends)
	e.Uvarint(s.SectorsBurned)
	e.Uvarint(s.PayloadBytes)
	e.Uvarint(s.WastedBytes)
	e.Uvarint(s.Mounts)
	encodeDuration(e, int64(s.SimTime))
}

func decodeWormStats(d *record.Decoder) storage.WORMStats {
	var s storage.WORMStats
	s.SectorReads = d.Uvarint()
	s.SectorWrites = d.Uvarint()
	s.Appends = d.Uvarint()
	s.SectorsBurned = d.Uvarint()
	s.PayloadBytes = d.Uvarint()
	s.WastedBytes = d.Uvarint()
	s.Mounts = d.Uvarint()
	s.SimTime = time.Duration(d.Uvarint())
	return s
}

// encodePagedMeta builds the framePagedMeta payload.
func encodePagedMeta(m *PagedMeta) []byte {
	e := record.NewEncoder(nil)
	e.Byte(framePagedMeta)
	e.Uvarint(m.Epoch)
	e.Uvarint(uint64(m.PageSize))
	e.Uvarint(uint64(m.SectorSize))
	e.Uvarint(m.Alloc.Pages)
	e.Uvarint(uint64(len(m.Alloc.Free)))
	for _, p := range m.Alloc.Free {
		e.Uvarint(p)
	}
	encodeMagStats(e, m.MagStats)
	e.Uvarint(m.Burned)
	encodeWormStats(e, m.WormStats)
	e.Uvarint(uint64(len(m.Shards)))
	for _, img := range m.Shards {
		encodeTreeImage(e, img)
	}
	names := make([]string, 0, len(m.Secondaries))
	for name := range m.Secondaries {
		names = append(names, name)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		e.Blob([]byte(name))
		encodeTreeImage(e, m.Secondaries[name])
	}
	e.Uvarint(uint64(len(m.Pending)))
	for _, p := range m.Pending {
		e.Key(p.Key)
		e.Uvarint(p.TxnID)
	}
	e.Uvarint(uint64(len(m.GroupLSNs)))
	for _, lsn := range m.GroupLSNs {
		e.Uvarint(lsn)
	}
	e.Uvarint(m.SecLSN)
	e.Uvarint(m.DeadBytes)
	return e.Bytes()
}

// decodePagedMeta parses a framePagedMeta payload (past the type byte).
func decodePagedMeta(d *record.Decoder) (*PagedMeta, error) {
	m := &PagedMeta{Secondaries: make(map[string]core.TreeImage)}
	m.Epoch = d.Uvarint()
	m.PageSize = int(d.Uvarint())
	m.SectorSize = int(d.Uvarint())
	m.Alloc.Pages = d.Uvarint()
	nFree := d.Uvarint()
	if nFree > uint64(d.Remaining()) {
		return nil, fmt.Errorf("wal: paged meta: %d free pages", nFree)
	}
	for i := uint64(0); i < nFree && d.Err() == nil; i++ {
		m.Alloc.Free = append(m.Alloc.Free, d.Uvarint())
	}
	m.MagStats = decodeMagStats(d)
	m.Burned = d.Uvarint()
	m.WormStats = decodeWormStats(d)
	nShards := d.Uvarint()
	if nShards > uint64(d.Remaining()) {
		return nil, fmt.Errorf("wal: paged meta: %d shard images", nShards)
	}
	for i := uint64(0); i < nShards && d.Err() == nil; i++ {
		m.Shards = append(m.Shards, decodeTreeImage(d))
	}
	nSec := d.Uvarint()
	if nSec > uint64(d.Remaining()) {
		return nil, fmt.Errorf("wal: paged meta: %d secondary images", nSec)
	}
	for i := uint64(0); i < nSec && d.Err() == nil; i++ {
		name := string(d.Blob())
		m.Secondaries[name] = decodeTreeImage(d)
	}
	nPend := d.Uvarint()
	for i := uint64(0); i < nPend && d.Err() == nil; i++ {
		var p core.PendingWrite
		p.Key = d.Key().Clone()
		p.TxnID = d.Uvarint()
		m.Pending = append(m.Pending, p)
	}
	nGroup := d.Uvarint()
	if nGroup > uint64(d.Remaining()) {
		return nil, fmt.Errorf("wal: paged meta: %d group LSNs", nGroup)
	}
	for i := uint64(0); i < nGroup && d.Err() == nil; i++ {
		m.GroupLSNs = append(m.GroupLSNs, d.Uvarint())
	}
	m.SecLSN = d.Uvarint()
	m.DeadBytes = d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wal: paged meta: %w", err)
	}
	if len(m.GroupLSNs) != len(m.Shards) {
		// Replay filters each shard's versions by its boundary LSN; with
		// a boundary missing it would re-apply commits the shard image
		// already holds.
		return nil, fmt.Errorf("wal: paged meta: %d group LSNs for %d shard images", len(m.GroupLSNs), len(m.Shards))
	}
	return m, nil
}
