package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

func rec(id uint64, t record.Timestamp, keys ...string) txn.CommitRecord {
	r := txn.CommitRecord{TxnID: id, Time: t}
	for _, k := range keys {
		r.Versions = append(r.Versions, record.Version{
			Key: record.StringKey(k), Time: t, TxnID: id, Value: []byte("v-" + k),
		})
	}
	return r
}

// replayAll replays every segment of dir in order, starting after
// afterLSN, and returns the records seen.
func replayAll(t *testing.T, dir string, afterLSN uint64) []txn.CommitRecord {
	t.Helper()
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []txn.CommitRecord
	last := afterLSN
	for _, seg := range segs {
		lastLSN, _, err := ReplayFile(seg.Path, last, func(lsn uint64, r txn.CommitRecord) error {
			out = append(out, r)
			return nil
		})
		if err != nil {
			t.Fatalf("replay %s: %v", seg.Path, err)
		}
		if lastLSN > last {
			last = lastLSN
		}
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := []txn.CommitRecord{rec(2, 1, "a", "b"), rec(3, 2, "c")}
	batch2 := []txn.CommitRecord{rec(4, 3, "a")}
	if err := l.AppendBatch(batch1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch2); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 2 || st.Records != 3 || st.Syncs != 2 {
		t.Errorf("stats = %+v", st)
	}
	if got := l.BacklogBytes(); got != st.BacklogBytes || got != st.Bytes {
		t.Errorf("lock-free backlog = %d, stats = %+v", got, st)
	}
	if lsn, err := l.Rotate(); err != nil || lsn != 3 {
		t.Errorf("rotation boundary = %d, %v; want 3", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 0)
	want := append(append([]txn.CommitRecord{}, batch1...), batch2...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TxnID != want[i].TxnID || got[i].Time != want[i].Time ||
			len(got[i].Versions) != len(want[i].Versions) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].Versions {
			g, w := got[i].Versions[j], want[i].Versions[j]
			if !g.Key.Equal(w.Key) || g.Time != w.Time || string(g.Value) != string(w.Value) {
				t.Fatalf("record %d version %d = %+v, want %+v", i, j, g, w)
			}
		}
	}

	// afterLSN filtering: skipping the first two records.
	if got := replayAll(t, dir, 2); len(got) != 1 || got[0].TxnID != 4 {
		t.Fatalf("filtered replay = %+v", got)
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := l.AppendBatch([]txn.CommitRecord{rec(i+1, record.Timestamp(i), "k")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _ := Segments(dir)
	path := segs[0].Path
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file at every possible byte length; replay must always
	// succeed and yield a prefix of the five records.
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var seen []uint64
		lastLSN, clean, err := ReplayFile(path, 0, func(lsn uint64, r txn.CommitRecord) error {
			seen = append(seen, lsn)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay error %v", cut, err)
		}
		if wantClean := frameEndsAt(whole, cut); clean != wantClean {
			t.Fatalf("cut=%d: clean=%v, want %v", cut, clean, wantClean)
		}
		if lastLSN != uint64(len(seen)) {
			t.Fatalf("cut=%d: lastLSN=%d with %d records", cut, lastLSN, len(seen))
		}
		for i, lsn := range seen {
			if lsn != uint64(i+1) {
				t.Fatalf("cut=%d: replayed LSN %d at position %d", cut, lsn, i)
			}
		}
		if len(seen) > 5 {
			t.Fatalf("cut=%d: replayed %d records", cut, len(seen))
		}
	}
	// A corrupted byte inside a frame body stops replay at that frame.
	corrupt := append([]byte{}, whole...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	_, clean, err := ReplayFile(path, 0, func(uint64, txn.CommitRecord) error { n++; return nil })
	if err != nil || clean || n != 4 {
		t.Fatalf("corrupt tail: n=%d clean=%v err=%v", n, clean, err)
	}
	// A zero-filled tail (the file was extended, the bytes never landed)
	// parses as empty frames — length 0, CRC32-C("") = 0 — and must read
	// as a torn tail, never as a commit frame of type 0.
	for _, zeros := range []int{1, 7, 8, 9, 16, 64} {
		if err := os.WriteFile(path, append(append([]byte{}, whole...), make([]byte, zeros)...), 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		lastLSN, clean, err := ReplayFile(path, 0, func(uint64, txn.CommitRecord) error { n++; return nil })
		if err != nil || clean || n != 5 || lastLSN != 5 {
			t.Fatalf("%d zero bytes after the last frame: n=%d lastLSN=%d clean=%v err=%v", zeros, n, lastLSN, clean, err)
		}
	}
}

// frameEndsAt reports whether offset cut is a frame boundary of buf.
func frameEndsAt(buf []byte, cut int) bool {
	off := 0
	for off < cut {
		if off+record.FrameHeaderSize > len(buf) {
			return false
		}
		n := int(uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)
		off += record.FrameHeaderSize + n
	}
	return off == cut
}

// TestRotateAndTruncate: Rotate closes a segment at an LSN boundary,
// replay stitches records across it, and MarkCheckpoint deletes the
// closed segment and re-anchors the backlog at the boundary (every
// append signals at a 1-byte threshold).
func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, CheckpointBytes: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.CheckpointDue()) != 0 {
		t.Fatal("a fresh log signals a checkpoint")
	}
	if err := l.AppendBatch([]txn.CommitRecord{rec(2, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	if len(l.CheckpointDue()) != 1 {
		t.Fatal("an append over the threshold did not signal")
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if boundary != 1 {
		t.Fatalf("rotation boundary = %d, want 1", boundary)
	}
	rotated := l.Stats().Bytes // the backlog anchor of a checkpoint at this boundary
	if err := l.AppendBatch([]txn.CommitRecord{rec(3, 2, "b")}); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	if len(segs) != 2 || segs[0].Index != 1 || segs[1].Index != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	// Records span the rotation; replay stitches them back together.
	if got := replayAll(t, dir, 0); len(got) != 2 || got[0].TxnID != 2 || got[1].TxnID != 3 {
		t.Fatalf("replay across rotation = %+v", got)
	}
	// Truncation drops the closed segment, keeps the live one.
	if err := l.MarkCheckpoint(); err != nil {
		t.Fatal(err)
	}
	segs, _ = Segments(dir)
	if len(segs) != 1 || segs[0].Index != 2 {
		t.Fatalf("segments after truncation = %+v", segs)
	}
	if got := replayAll(t, dir, boundary); len(got) != 1 || got[0].TxnID != 3 {
		t.Fatalf("replay after truncation = %+v", got)
	}
	// The checkpoint covers the boundary, not the append after it: that
	// append stays backlog and, alone over the threshold, keeps a signal
	// pending. A checkpoint past every append leaves neither.
	if st := l.Stats(); st.BacklogBytes == 0 || st.BacklogBytes != st.Bytes-rotated || len(l.CheckpointDue()) != 1 {
		t.Fatalf("append after the boundary: backlog %d, %d signals pending; want %d, 1",
			st.BacklogBytes, len(l.CheckpointDue()), st.Bytes-rotated)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if len(l.CheckpointDue()) != 0 || l.Stats().BacklogBytes != 0 {
		t.Fatal("a checkpoint past every append left a signal or a backlog behind")
	}
	l.Close()
}

func TestAppendAfterTornWriteFailsFast(t *testing.T) {
	dir := t.TempDir()
	plan := storage.NewTearPlan(40)
	l, err := Open(Options{
		Dir:      dir,
		WrapFile: func(f storage.LogFile) storage.LogFile { return storage.NewTornLogFile(f, plan) },
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]txn.CommitRecord{rec(2, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	// The second append crosses the 40-byte budget and tears.
	err = l.AppendBatch([]txn.CommitRecord{rec(3, 2, "b")})
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("torn append error = %v", err)
	}
	// The log is broken: later appends fail without touching the device.
	if err := l.AppendBatch([]txn.CommitRecord{rec(4, 3, "c")}); err == nil {
		t.Fatal("append on broken log should fail")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("rotate on broken log should fail")
	}
	// Recovery sees exactly the intact prefix.
	if got := replayAll(t, dir, 0); len(got) != 1 || got[0].TxnID != 2 {
		t.Fatalf("replay after tear = %+v", got)
	}
	l.Close()
}

func TestCheckpointAbsentAndTorn(t *testing.T) {
	dir := t.TempDir()
	if _, found, err := ReadCheckpoint(dir); err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	info := CheckpointInfo{Shards: 1, Clock: 3, LSN: 7, Paged: &PagedMeta{
		Epoch: 1, PageSize: 4096, SectorSize: 1024,
		Shards: []core.TreeImage{{}},
	}}

	// A torn checkpoint write never installs: the tmp file stays and is
	// ignored by readers.
	plan := storage.NewTearPlan(30)
	err := WriteCheckpoint(dir,
		func(f storage.LogFile) storage.LogFile { return storage.NewTornLogFile(f, plan) }, info)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("torn checkpoint error = %v", err)
	}
	if _, found, err := ReadCheckpoint(dir); err != nil || found {
		t.Fatalf("after torn write: found=%v err=%v", found, err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file should not exist: %v", err)
	}

	// An installed checkpoint that is then corrupted is a hard error.
	if err := WriteCheckpoint(dir, nil, info); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	buf, _ := os.ReadFile(path)
	if err := os.WriteFile(path, buf[:len(buf)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); err == nil {
		t.Fatal("truncated installed checkpoint should be a hard error")
	}
	// So is one with a zero-filled tail: the empty frames it parses as
	// are a torn tail, not frames of an unknown type.
	for _, zeros := range []int{1, 8, 64} {
		if err := os.WriteFile(path, append(append([]byte{}, buf...), make([]byte, zeros)...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, found, err := ReadCheckpoint(dir)
		if found || err == nil || !strings.Contains(err.Error(), "incomplete or corrupt") {
			t.Fatalf("%d zero bytes after the footer: found=%v err=%v", zeros, found, err)
		}
	}
}

// TestReadCheckpointRefuses feeds the reader hand-built checkpoint files
// it must reject with an error — never as "not found", which would let
// the engine re-create a database over a live directory.
func TestReadCheckpointRefuses(t *testing.T) {
	header := func(version uint64, shards int) []byte {
		e := record.NewEncoder(nil)
		e.Byte(frameCheckpointHeader)
		e.Uvarint(version)
		e.Uvarint(uint64(shards))
		e.Time(5)
		e.Uvarint(9) // LSN
		e.Uvarint(0) // no secondaries
		return e.Bytes()
	}
	footer := func() []byte {
		e := record.NewEncoder(nil)
		e.Byte(frameCheckpointFooter)
		e.Uvarint(9)
		return e.Bytes()
	}
	// The retired logical format: header, one shard chunk (frame type
	// 3) of versions, footer.
	chunk := record.NewEncoder(nil)
	chunk.Byte(3)
	chunk.Uvarint(0)
	chunk.Versions([]record.Version{{Key: record.StringKey("k"), Time: 1, Value: []byte("v")}})

	for _, tc := range []struct {
		name    string
		frames  [][]byte
		wantErr error  // matched with errors.Is when non-nil
		wantMsg string // else a substring of the error
	}{
		{"format 3 logical dump",
			[][]byte{header(3, 1), chunk.Bytes(), footer()}, ErrRetiredFormat, ""},
		{"unknown format",
			[][]byte{header(9, 1), footer()}, nil, "checkpoint format 9"},
		{"format 4 fuzzy checkpoint",
			checkpointFrames(t, goldenBytes(t, "checkpoint-v4.hex")), ErrRetiredFormat, "per-shard fuzzy"},
		{"v4 without its meta frame",
			[][]byte{header(4, 1), footer()}, ErrRetiredFormat, "format 4"},
		{"format 5 checkpoint",
			checkpointFrames(t, goldenBytes(t, "checkpoint-v5.hex")), ErrRetiredFormat, "no index writes"},
		{"v5 without its meta frame",
			[][]byte{header(5, 1), footer()}, ErrRetiredFormat, "format 5"},
		{"v6 without its meta frame",
			[][]byte{header(6, 1), footer()}, nil, "missing its paged-meta frame"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var file []byte
			for _, f := range tc.frames {
				file = record.AppendFrame(file, f)
			}
			if err := os.WriteFile(filepath.Join(dir, checkpointName), file, 0o644); err != nil {
				t.Fatal(err)
			}
			_, found, err := ReadCheckpoint(dir)
			if err == nil || found {
				t.Fatalf("found=%v err=%v, want an error", found, err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.wantMsg)
			}
		})
	}
}

func TestOpenContinuesLSNAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]txn.CommitRecord{rec(2, 1, "a"), rec(3, 2, "b")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A reopened log starts a fresh segment past the old one and
	// continues the LSN sequence.
	l2, err := Open(Options{Dir: dir}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendBatch([]txn.CommitRecord{rec(4, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got := replayAll(t, dir, 0)
	if len(got) != 3 || got[2].TxnID != 4 {
		t.Fatalf("replay = %+v", got)
	}
}
