package wal

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/storage"
)

// sampleCheckpoint is a checkpoint with every field populated: the fixed
// input of the round-trip and golden-bytes tests.
func sampleCheckpoint() CheckpointInfo {
	meta := &PagedMeta{
		Epoch:      7,
		PageSize:   4096,
		SectorSize: 1024,
		Alloc:      pagestore.AllocState{Pages: 42, Free: []uint64{3, 9}},
		MagStats:   storage.MagneticStats{Reads: 10, Writes: 20, Allocs: 44, Frees: 2, PagesInUse: 40, HighWater: 41},
		Burned:     17,
		WormStats:  storage.WORMStats{SectorWrites: 17, SectorsBurned: 17, PayloadBytes: 9000, WastedBytes: 1234, Appends: 5},
		Shards: []core.TreeImage{
			{
				Root: storage.Addr{Kind: storage.KindMagnetic, Off: 12},
				Now:  99,
				Stats: core.Stats{
					Inserts: 1000, Commits: 900, LeafTimeSplits: 7,
					RedundantVersions: 3, HistoricalNodes: 4, CurrentNodes: 11, Height: 3,
				},
				Marked:       []uint64{5, 8},
				Policy:       core.PolicyLastUpdate,
				MaxKeySize:   64,
				MaxValueSize: 512,
				LeafCapacity: 4096, IndexCapacity: 4096,
			},
			{
				Root:       storage.Addr{Kind: storage.KindMagnetic, Off: 30},
				Now:        99,
				Policy:     core.PolicyKeyPref,
				MaxKeySize: 64, MaxValueSize: 512, LeafCapacity: 4096, IndexCapacity: 4096,
			},
		},
		Secondaries: map[string]core.TreeImage{
			"dept": {
				Root:       storage.Addr{Kind: storage.KindMagnetic, Off: 31},
				Now:        98,
				Policy:     core.PolicyLastUpdate,
				MaxKeySize: 129, MaxValueSize: 512, LeafCapacity: 4096, IndexCapacity: 4096,
			},
		},
		Pending: []core.PendingWrite{
			{Key: record.StringKey("inflight-a"), TxnID: 12},
			{Key: record.StringKey("inflight-b"), TxnID: 13},
		},
		GroupLSNs: []uint64{457, 460},
		SecLSN:    461,
		DeadBytes: 77,
	}
	return CheckpointInfo{
		Shards:      2,
		Clock:       99,
		LSN:         456,
		Secondaries: []string{"dept"},
		Paged:       meta,
	}
}

// TestPagedCheckpointRoundTrip: a checkpoint's header and metadata
// survive write + read bit-exactly.
func TestPagedCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	info := sampleCheckpoint()
	meta := info.Paged
	if err := WriteCheckpoint(dir, nil, info); err != nil {
		t.Fatal(err)
	}
	got, found, err := ReadCheckpoint(dir)
	if err != nil || !found {
		t.Fatalf("read: found=%v err=%v", found, err)
	}
	if got.Paged == nil {
		t.Fatal("paged meta missing")
	}
	if got.Shards != 2 || got.Clock != 99 || got.LSN != 456 ||
		len(got.Secondaries) != 1 || got.Secondaries[0] != "dept" {
		t.Fatalf("header: %+v", got)
	}
	if !reflect.DeepEqual(got.Paged, meta) {
		t.Fatalf("paged meta round trip:\n got %+v\nwant %+v", got.Paged, meta)
	}
}
