package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// pagedConfig is the base configuration of the device-file tests: small
// nodes so splits and WORM migrations actually happen.
func pagedConfig(dir string) Config {
	return Config{
		Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256,
	}
}

func pagedConfigWithSecs(dir string, secs map[string]SecondaryExtract) Config {
	cfg := pagedConfig(dir)
	cfg.Secondaries = secs
	return cfg
}

func mustPut(t *testing.T, d *DB, k, v string) {
	t.Helper()
	if err := d.Update(func(tx *txn.Txn) error {
		return tx.Put(record.StringKey(k), []byte(v))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPagedOpenReopen is the basic device-file round trip: write,
// checkpoint, write more (so the WAL tail matters), close, reopen, and
// demand every version — current, historical, scanned — plus the device
// accounting to survive.
func TestPagedOpenReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, d, fmt.Sprintf("key%03d", i%50), fmt.Sprintf("val%04d", i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 260; i++ {
		mustPut(t, d, fmt.Sprintf("key%03d", i%50), fmt.Sprintf("val%04d", i))
	}
	wantAll, err := d.ScanRange(nil, record.InfiniteBound(), 1, record.TimeInfinity)
	if err != nil {
		t.Fatal(err)
	}
	wantNow := d.Now()
	wantDev := d.Stats().Device
	if !wantDev.Paged {
		t.Fatal("Device.Paged = false on a paged database")
	}
	if wantDev.SpaceM == 0 || wantDev.SpaceO == 0 {
		t.Fatalf("device accounting empty: %+v", wantDev)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Now() != wantNow {
		t.Fatalf("reopened clock %v, want %v", re.Now(), wantNow)
	}
	gotAll, err := re.ScanRange(nil, record.InfiniteBound(), 1, record.TimeInfinity)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "paged reopen full scan", gotAll, wantAll)
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Accounting is cumulative across the reopen.
	reDev := re.Stats().Device
	if reDev.SpaceO < wantDev.SpaceO {
		t.Fatalf("SpaceO shrank across reopen: %d -> %d", wantDev.SpaceO, reDev.SpaceO)
	}
	// And the reopened database keeps working.
	mustPut(t, re, "post", "reopen")
	if v, ok, err := re.Get(record.StringKey("post")); err != nil || !ok || string(v.Value) != "reopen" {
		t.Fatalf("write after reopen: %v %v %q", ok, err, v.Value)
	}
}

// TestPagedCheckpointIncremental is the acceptance criterion: after a
// large database is checkpointed, a checkpoint following a small number
// of updates flushes O(dirty) pages, not O(database).
func TestPagedCheckpointIncremental(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2000; i++ {
		mustPut(t, d, fmt.Sprintf("key%05d", i), strings.Repeat("x", 40))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := d.Stats().Buffer.FlushedPages
	totalPages := d.Stats().Magnetic.PagesInUse

	// Touch three keys, checkpoint again.
	for i := 0; i < 3; i++ {
		mustPut(t, d, fmt.Sprintf("key%05d", i*700), "dirty")
	}
	if dirty := d.Stats().Device.DirtyPages; dirty == 0 {
		t.Fatal("no dirty pages after updates")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	flushed := int(d.Stats().Buffer.FlushedPages - base)
	if flushed == 0 {
		t.Fatal("incremental checkpoint flushed nothing")
	}
	if flushed*10 > totalPages {
		t.Fatalf("incremental checkpoint flushed %d of %d pages: not O(dirty)", flushed, totalPages)
	}
	if dirty := d.Stats().Device.DirtyPages; dirty != 0 {
		t.Fatalf("%d dirty pages survived the checkpoint", dirty)
	}
}

// TestPagedConfigValidation: a durable database needs the pool — its
// dirty-page table is what a checkpoint flushes.
func TestPagedConfigValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if _, err := Open(Config{Dir: dir, BufferPages: NoCachePages}); err == nil {
		t.Fatal("durable database with NoCachePages accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected config still touched the directory: %v", err)
	}
}

// TestOpenRefusesRetiredFormat: a directory whose CHECKPOINT is the
// retired logical format (3) holds a real database this engine cannot
// read. Open must say so — not see "no checkpoint" and create a fresh
// database over it — and must leave every file as it found it.
func TestOpenRefusesRetiredFormat(t *testing.T) {
	dir := t.TempDir()
	frame := func(build func(e *record.Encoder)) []byte {
		e := record.NewEncoder(nil)
		build(e)
		return record.AppendFrame(nil, e.Bytes())
	}
	var file []byte
	file = append(file, frame(func(e *record.Encoder) { // header
		e.Byte(2)
		e.Uvarint(3) // format
		e.Uvarint(1) // shards
		e.Time(1)    // clock
		e.Uvarint(1) // LSN
		e.Uvarint(0) // secondaries
	})...)
	file = append(file, frame(func(e *record.Encoder) { // shard chunk
		e.Byte(3)
		e.Uvarint(0)
		e.Versions([]record.Version{{Key: record.StringKey("k"), Time: 1, Value: []byte("v")}})
	})...)
	file = append(file, frame(func(e *record.Encoder) { // footer
		e.Byte(4)
		e.Uvarint(1)
	})...)
	if err := os.WriteFile(filepath.Join(dir, "CHECKPOINT"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, ent := range ents {
			if ent.Name() == "LOCK" {
				continue // the advisory lock file is not database state
			}
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[ent.Name()] = string(data)
		}
		return out
	}
	before := snapshot()

	_, err := Open(Config{Dir: dir})
	if !errors.Is(err, wal.ErrRetiredFormat) {
		t.Fatalf("open of a format-3 directory: err = %v, want wal.ErrRetiredFormat", err)
	}
	if !strings.Contains(err.Error(), "logical") {
		t.Fatalf("error does not name the retired logical format: %v", err)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused open changed the directory:\nbefore %q\nafter  %q", before, after)
	}
	// The refusal released the lock: a second attempt fails the same
	// way, not with ErrLocked.
	if _, err := Open(Config{Dir: dir}); !errors.Is(err, wal.ErrRetiredFormat) {
		t.Fatalf("second open: err = %v", err)
	}
}

// TestPagedSecondariesReopen: secondary indexes rebuilt from tree
// images answer the same lookups after a reopen, and reopening demands
// the extractor set.
func TestPagedSecondariesReopen(t *testing.T) {
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	cfg := pagedConfig(dir)
	cfg.Secondaries = secs
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		mustPut(t, d, fmt.Sprintf("emp%02d", i%20), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 80; i++ {
		mustPut(t, d, fmt.Sprintf("emp%02d", i%20), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	now := d.Now()
	want := map[string][]string{}
	for dept := 0; dept < 3; dept++ {
		skey := record.Key(fmt.Sprintf("dept%02d", dept))
		pks, err := d.LookupSecondary("dept", skey, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range pks {
			want[string(skey)] = append(want[string(skey)], string(pk))
		}
	}
	d.Close()

	// Missing extractor: refused.
	bad := pagedConfig(dir)
	if _, err := Open(bad); err == nil {
		t.Fatal("reopen without extractors accepted")
	}
	cfg2 := pagedConfig(dir)
	cfg2.Secondaries = secs
	re, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for skey, wantPKs := range want {
		pks, err := re.LookupSecondary("dept", record.Key(skey), now)
		if err != nil {
			t.Fatal(err)
		}
		if len(pks) != len(wantPKs) {
			t.Fatalf("%s: %d keys after reopen, want %d", skey, len(pks), len(wantPKs))
		}
		for i := range pks {
			if string(pks[i]) != wantPKs[i] {
				t.Fatalf("%s key %d = %s, want %s", skey, i, pks[i], wantPKs[i])
			}
		}
	}
}

// TestPagedPendingErasedOnRecovery: a transaction in flight across a
// checkpoint leaves its pending version in the flushed pages; recovery
// must erase it — invisible to every read, and no obstacle to a new
// transaction (with a recycled txn id) writing the same key.
func TestPagedPendingErasedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "stable", "committed")
	tx := d.Begin()
	if err := tx.Put(record.StringKey("inflight"), []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Power loss with tx still open: its pending version is inside the
	// checkpointed pages.
	crash(d)

	re, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, err := re.Get(record.StringKey("inflight")); err != nil || ok {
		t.Fatalf("uncommitted key visible after recovery: ok=%v err=%v", ok, err)
	}
	hist, err := re.History(record.StringKey("inflight"))
	if err == nil && len(hist) != 0 {
		t.Fatalf("uncommitted key has %d recovered versions", len(hist))
	}
	// A fresh transaction — txn ids restart from 1 — writes the key.
	mustPut(t, re, "inflight", "second-life")
	if v, ok, _ := re.Get(record.StringKey("inflight")); !ok || string(v.Value) != "second-life" {
		t.Fatalf("rewrite after recovery: ok=%v val=%q", ok, v.Value)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedDeviceFilesExist: the directory actually contains the device
// files, and they dwarf the checkpoint metadata (the point of paging:
// the checkpoint no longer carries the database).
func TestPagedDeviceFilesExist(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 500; i++ {
		mustPut(t, d, fmt.Sprintf("key%04d", i), strings.Repeat("v", 60))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pageInfo, err := os.Stat(filepath.Join(dir, "pages.dev"))
	if err != nil {
		t.Fatal(err)
	}
	cpInfo, err := os.Stat(filepath.Join(dir, "CHECKPOINT"))
	if err != nil {
		t.Fatal(err)
	}
	if pageInfo.Size() < 10*cpInfo.Size() {
		t.Fatalf("pages.dev %d bytes vs CHECKPOINT %d bytes: checkpoint still carries the database?",
			pageInfo.Size(), cpInfo.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "pages.dev.journal")); !os.IsNotExist(err) {
		t.Fatalf("rollback journal survived a completed checkpoint: %v", err)
	}
}
