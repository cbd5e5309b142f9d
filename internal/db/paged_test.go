package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/storage"
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
	wantAll, err := fullHistory(d)
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
	gotAll, err := fullHistory(re)
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

// TestPagedConfigValidation: a refused config leaves the directory
// untouched.
func TestPagedConfigValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if _, err := Open(Config{Dir: dir, BufferPages: -1}); err == nil {
		t.Fatal("durable database with negative BufferPages accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected config still touched the directory: %v", err)
	}
}

// seedDeadBurns drives a migration-heavy workload against a fresh paged
// directory — its time splits burn historical nodes inline — and then
// crashes WITHOUT a checkpoint. On reopen every run burned since the
// open-time seal is unreferenced (the magnetic tree that pointed at it
// rolled back to the seal; replay re-burns fresh copies), so the
// directory deterministically carries dead write-once payload: waste the
// device reports and never reclaims. It returns the
// acknowledged commits for oracle comparison.
func seedDeadBurns(t *testing.T, cfg Config, commits int, seed int64) []oracleOp {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	acked, unacked := runUntilCrash(t, d, rng, commits, 0)
	if unacked != nil {
		t.Fatalf("fault-free workload failed after %d commits", len(acked))
	}
	if st := d.Stats(); st.WORM.SectorsBurned == 0 || st.Tree.LeafTimeSplits == 0 {
		t.Fatalf("workload burned %d sectors in %d leaf time splits; the orphaning crash would be vacuous",
			st.WORM.SectorsBurned, st.Tree.LeafTimeSplits)
	}
	crash(d)
	return acked
}

// TestDeadBurnsSurviveReopen: write-once means write-once. The burns a
// crash orphans survive the reopen as reported waste — DeadBytes > 0,
// utilization below 1 — and stay exactly that: a checkpoint carries the
// account in its metadata, so a second, clean reopen reports the same
// DeadBytes. The inputs add a crash loop: before the first clean reopen,
// tornOpens opens each crash inside their open-time checkpoint: a tear
// on the block seam past the replay's burns, the k-th one k·1500 B into
// the checkpoint's page flush, so each lands at a new point. Each crash
// orphans that replay's burns and nothing more — DeadBytes grows by at
// most one tail's burns per crash. The logical content matches the
// oracle of acknowledged commits on every read surface throughout.
func TestDeadBurnsSurviveReopen(t *testing.T) {
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	var tailBurns, prevDead uint64 // payload one replay burns; DeadBytes with one crash fewer
	var replayBytes int64          // block-seam bytes one replay writes before its checkpoint
	for tornOpens := 0; tornOpens <= 3; tornOpens++ {
		dir := t.TempDir()
		_, burnPath := pagestore.Paths(dir)
		cfg := pagedConfigWithSecs(dir, secs)
		acked := seedDeadBurns(t, cfg, 120, 42)
		oracle := applyOracle(t, cfg, acked)
		for k := 0; k < tornOpens; k++ {
			plan := storage.NewTearPlan(replayBytes + int64(k)*1500)
			if _, err := Open(tearConfig(cfg, plan, false, true)); !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("torn open %d of %d: err = %v, want the injected tear", k+1, tornOpens, err)
			}
		}
		sizeBefore := fileSize(t, burnPath)
		d, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := d.Stats().Device
		if dev.DeadBytes == 0 {
			t.Fatal("no dead bytes after the orphaning crash")
		}
		if u := dev.Utilization; u < 0 || u >= 1 {
			t.Fatalf("utilization %v with %d dead bytes, want [0,1)", u, dev.DeadBytes)
		}
		if tornOpens == 0 {
			// The seal burned nothing, so every live payload byte is this
			// replay's, and so is every byte the open added to worm.dev.
			tailBurns, replayBytes = dev.PayloadBytes, fileSize(t, burnPath)-sizeBefore
		} else if dev.DeadBytes <= prevDead || dev.DeadBytes > prevDead+tailBurns {
			t.Fatalf("%d torn opens: DeadBytes %d, want in (%d, %d]: one tail's burns (%d B) per crash",
				tornOpens, dev.DeadBytes, prevDead, prevDead+tailBurns, tailBurns)
		}
		prevDead = dev.DeadBytes
		label := fmt.Sprintf("%d torn opens", tornOpens)
		assertEquivalent(t, label+", reopened", d, oracle, []string{"dept"})
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Device.DeadBytes; got != dev.DeadBytes {
			t.Fatalf("%s: DeadBytes %d -> %d across a checkpoint", label, dev.DeadBytes, got)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Stats().Device; got.DeadBytes != dev.DeadBytes || got.Utilization >= 1 {
			t.Fatalf("%s: clean reopen: DeadBytes %d utilization %v, want DeadBytes %d and utilization < 1",
				label, got.DeadBytes, got.Utilization, dev.DeadBytes)
		}
		assertEquivalent(t, label+", clean reopen", re, oracle, []string{"dept"})
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		oracle.Close()
	}
}

// TestRestartIsIdempotent: Open and Close each end at a checkpoint, so a
// clean restart replays nothing and burns nothing. After a crash that
// leaves a tail of time splits behind, the first reopen replays it and
// accounts the crash's orphans once; from then on DeadBytes, the sectors
// burned and the size of worm.dev never change, and no later reopen
// finds a frame to replay.
func TestRestartIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	_, burnPath := pagestore.Paths(dir)
	cfg := pagedConfig(dir)
	acked := seedDeadBurns(t, cfg, 120, 7)
	oracle := applyOracle(t, cfg, acked)
	defer oracle.Close()
	var dead, burned uint64
	var size int64
	for cycle := 0; cycle < 5; cycle++ {
		frames := framesPastCheckpoint(t, dir)
		if (cycle == 0) != (frames > 0) {
			t.Fatalf("cycle %d: the reopen will replay %d frames", cycle, frames)
		}
		d, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		assertEquivalent(t, fmt.Sprintf("cycle %d", cycle), d, oracle, nil)
		if err := d.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
		sz := fileSize(t, burnPath)
		if cycle == 0 {
			dead, burned, size = st.Device.DeadBytes, st.WORM.SectorsBurned, sz
			if dead == 0 {
				t.Fatal("the crash orphaned nothing; the test would be vacuous")
			}
			continue
		}
		if st.Device.DeadBytes != dead || st.WORM.SectorsBurned != burned || sz != size {
			t.Fatalf("cycle %d: DeadBytes %d, sectors burned %d, worm.dev %d B; after the first reopen %d, %d, %d B",
				cycle, st.Device.DeadBytes, st.WORM.SectorsBurned, sz, dead, burned, size)
		}
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// framesPastCheckpoint counts the WAL frames in dir past the installed
// checkpoint's LSN: what the next Open will replay.
func framesPastCheckpoint(t *testing.T, dir string) int {
	t.Helper()
	info, _, err := wal.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		if _, _, err := wal.ReplayFile(seg.Path, info.LSN, func(uint64, txn.CommitRecord) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestCheckpointPauseAccounting checks the Stats().Checkpoint surface
// the fuzzy paged capture exists to shrink: a view over the
// tsb_checkpoint_pause_seconds histogram, which each completed checkpoint
// — Open's included — observes exactly once and a failed one not at all.
func TestCheckpointPauseAccounting(t *testing.T) {
	d, err := Open(pagedConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	base := d.Stats().Checkpoint
	if base.Checkpoints != 1 {
		t.Fatalf("fresh open counted %d checkpoints, want its own 1", base.Checkpoints)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("key%03d", i%20), fmt.Sprintf("val%04d", i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats().Checkpoint
	if st.Checkpoints != base.Checkpoints+1 {
		t.Fatalf("Checkpoints %d -> %d, want +1", base.Checkpoints, st.Checkpoints)
	}
	if st.PauseNanos <= base.PauseNanos || st.MaxPauseNanos > st.PauseNanos {
		t.Fatalf("pause accounting: %+v (was %+v)", st, base)
	}
	if c, sum := d.cpPause.Count(), d.cpPause.Sum(); c != st.Checkpoints || uint64(sum) != st.PauseNanos {
		t.Fatalf("Stats().Checkpoint %+v is not the histogram's view: count %d sum %v", st, c, sum)
	}
	// A checkpoint that fails is not counted.
	d.cpMu.Lock()
	d.logWrap = func(f storage.LogFile) storage.LogFile { return storage.NewTornLogFile(f, storage.NewTearPlan(0)) }
	d.cpMu.Unlock()
	if err := d.Checkpoint(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("torn checkpoint: %v", err)
	}
	if got := d.Stats().Checkpoint; got != st {
		t.Fatalf("failed checkpoint moved the accounting: %+v -> %+v", st, got)
	}
	crash(d)
}

// TestOpenRefusesRetiredFormat: a directory an older release left in a
// shape this engine no longer reads holds a real database. Open must
// refuse it by name — not see "no checkpoint" and create a fresh
// database over it, not replay, delete or skip what it cannot handle —
// leave every file as it found it, and release the lock. The inputs:
//   - a CHECKPOINT in the retired logical format (3);
//   - a v4 directory with worm.dev.journal beside the burn file: the
//     rollback journal of the retired WORM compaction, possibly a torn
//     round that still needs rolling back.
func TestOpenRefusesRetiredFormat(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    func(t *testing.T, dir string)
		want    error
		mention []string
	}{
		{"logical-checkpoint", seedLogicalCheckpoint, wal.ErrRetiredFormat, []string{"logical"}},
		{"compaction-journal", seedCompactionJournal, pagestore.ErrRetiredJournal,
			[]string{"worm.dev.journal", "previous release"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.seed(t, dir)
			before := dirSnapshot(t, dir)

			_, err := Open(Config{Dir: dir})
			if !errors.Is(err, tc.want) {
				t.Fatalf("open: err = %v, want %v", err, tc.want)
			}
			for _, m := range tc.mention {
				if !strings.Contains(err.Error(), m) {
					t.Fatalf("error does not mention %q: %v", m, err)
				}
			}
			if after := dirSnapshot(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
			// The refusal released the lock: a second attempt fails the
			// same way, not with ErrLocked.
			if _, err := Open(Config{Dir: dir}); !errors.Is(err, tc.want) {
				t.Fatalf("second open: err = %v", err)
			}
		})
	}
}

// dirSnapshot maps every file of dir but the advisory lock (not database
// state) to its contents.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, ent := range ents {
		if ent.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = string(data)
	}
	return out
}

// seedLogicalCheckpoint writes a format-3 (logical dump) CHECKPOINT and
// an empty WAL segment into dir.
func seedLogicalCheckpoint(t *testing.T, dir string) {
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
}

// seedCompactionJournal builds a checkpointed v4 directory with burned
// history and a WAL tail, then puts beside its burn file a compaction
// journal in the retired layout: a header frame (journal magic, the
// installed epoch, the region boundary and old burned end) and one
// old-region frame.
func seedCompactionJournal(t *testing.T, dir string) {
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, d, fmt.Sprintf("key%02d", i%30), fmt.Sprintf("val%04d", i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "tail", "only in the WAL")
	burned, epoch := d.Stats().WORM.SectorsBurned, d.epoch
	if burned == 0 {
		t.Fatal("workload burned nothing")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	hdr := []byte("TSBJRNL\x01")
	for _, v := range []uint64{epoch, 0, burned} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	journal := record.AppendFrame(record.AppendFrame(nil, hdr), []byte("old region"))
	if err := os.WriteFile(filepath.Join(dir, "worm.dev.journal"), journal, 0o644); err != nil {
		t.Fatal(err)
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
// transaction (with a recycled txn id) writing the same key. The
// checkpoint lists exactly the pending versions its images hold: one in
// flight across two checkpoints is listed by the second although its
// leaf was clean then, one that aborted before is not, and a listed one
// that is not in the image makes Open fail as corruption.
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
	aborted := d.Begin()
	if err := aborted.Put(record.StringKey("aborted"), []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The second checkpoint flushes nothing: tx's leaf is clean.
	if dirty := d.Stats().Device.DirtyPages; dirty != 0 {
		t.Fatalf("%d dirty pages between checkpoints, want 0", dirty)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, _, err := wal.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.PendingWrite{{Key: record.StringKey("inflight"), TxnID: tx.ID()}}
	if !reflect.DeepEqual(info.Paged.Pending, want) {
		t.Fatalf("checkpoint pending = %v, want %v", info.Paged.Pending, want)
	}
	// Power loss with tx still open: its pending version is inside the
	// checkpointed pages.
	crash(d)

	re, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
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
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// A checkpoint naming a pending version its image lacks is refused,
	// and the refused Open leaves the directory unlocked.
	info, _, err = wal.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Paged.Pending) != 0 {
		t.Fatalf("clean close left pending %v", info.Paged.Pending)
	}
	info.Paged.Pending = []core.PendingWrite{{Key: record.StringKey("ghost"), TxnID: 7}}
	if err := wal.WriteCheckpoint(dir, nil, info); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pagedConfig(dir)); !errors.Is(err, core.ErrNoPending) || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Open with a fabricated pending entry = %v, want ErrNoPending naming ghost", err)
	}
	info.Paged.Pending = nil
	if err := wal.WriteCheckpoint(dir, nil, info); err != nil {
		t.Fatal(err)
	}
	re, err = Open(pagedConfig(dir))
	if err != nil {
		t.Fatalf("reopen after the refused Open: %v", err)
	}
	if v, ok, _ := re.Get(record.StringKey("inflight")); !ok || string(v.Value) != "second-life" {
		t.Fatalf("after the refused Open: ok=%v val=%q", ok, v.Value)
	}
	if err := re.Close(); err != nil {
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
