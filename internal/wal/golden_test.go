package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/txn"
)

// goldenBytes decodes the hex dump in testdata/name.
func goldenBytes(t testing.TB, name string) []byte {
	t.Helper()
	dump, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(dump)), ""))
	if err != nil {
		t.Fatalf("testdata/%s: %v", name, err)
	}
	return b
}

// checkGolden compares got with the hex dump in testdata/name. The
// segment dump was captured from the commit before internal/record
// became the only frame codec: a mismatch means the on-disk format
// moved, and a directory written by an older binary would no longer
// open. checkpoint.hex was regenerated when the checkpoint moved to
// format 5 (one boundary LSN for every tree, and no secondary-name list
// in the header: the meta frame's images name them) and again for
// format 6 (the same bytes under a new version: its log tail logs index
// writes); checkpoint-v4.hex and checkpoint-v5.hex keep the older
// formats' bytes, which the reader must refuse by name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if want := goldenBytes(t, name); !bytes.Equal(got, want) {
		t.Fatalf("%s: on-disk bytes changed\n got %x\nwant %x", name, got, want)
	}
}

// checkpointFrames splits a checkpoint file into its frame payloads.
func checkpointFrames(t testing.TB, file []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	if clean, err := record.WalkFrames(file, func(p []byte) error {
		frames = append(frames, p)
		return nil
	}); err != nil || !clean {
		t.Fatalf("checkpoint frames: clean=%v err=%v", clean, err)
	}
	return frames
}

// TestGoldenSegment pins the bytes of a WAL segment: two batches, three
// commit frames.
func TestGoldenSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]txn.CommitRecord{
		{rec(2, 1, "a", "b"), rec(3, 2, "c")},
		{rec(4, 3, "a")},
	} {
		if err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "segment.hex", got)
}

// TestGoldenSegmentWithIndexWrites pins the commit frame of a
// transaction that wrote secondary-index entries: its index writes
// follow the write set, and a frame without them is the frame
// segment.hex holds. Replay returns the record as appended.
func TestGoldenSegmentWithIndexWrites(t *testing.T) {
	r := rec(2, 1, "emp1")
	r.Index = []txn.IndexWrite{
		// A decoded tombstone's value is empty, not nil.
		{Index: "dept", Version: record.Version{Key: record.StringKey("sales\x00emp1"), Time: 1, Tombstone: true, Value: []byte{}}},
		{Index: "dept", Version: record.Version{Key: record.StringKey("eng\x00emp1"), Time: 1, Value: []byte("emp1")}},
	}
	plain := encodeCommit(1, rec(2, 1, "emp1"))
	got := encodeCommit(1, r)
	want := append(append([]byte{}, plain...), 2)
	want = append(append(want, 4), "dept"...)
	want = append(want, 1, 10)
	want = append(append(want, "sales\x00emp1"...), 1, 0, 0)
	want = append(append(want, 4), "dept"...)
	want = append(want, 0, 8)
	want = append(append(want, "eng\x00emp1"...), 1, 0, 4)
	want = append(want, "emp1"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("commit frame with index writes\n got %x\nwant %x", got, want)
	}
	_, back, err := decodeCommit(got)
	if err != nil || !reflect.DeepEqual(back, r) {
		t.Fatalf("decode = %+v, %v; want %+v", back, err, r)
	}
}

// FuzzDecodeCommit: whatever bytes a commit frame's payload holds, the
// decoder refuses them or returns a record that encodes and decodes
// back to itself, and never panics or sizes an allocation from an
// unchecked count. Seeded with the frames of segment.hex and a frame
// carrying index writes.
func FuzzDecodeCommit(f *testing.F) {
	if _, err := record.WalkFrames(goldenBytes(f, "segment.hex"), func(p []byte) error {
		f.Add(p)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	r := rec(2, 1, "emp1")
	r.Index = []txn.IndexWrite{{Index: "dept", Version: record.Version{Key: record.StringKey("eng\x00emp1"), Time: 1, Value: []byte("emp1")}}}
	f.Add(encodeCommit(1, r))
	f.Fuzz(func(t *testing.T, b []byte) {
		lsn, rec, err := decodeCommit(b)
		if err != nil {
			return
		}
		lsn2, rec2, err := decodeCommit(encodeCommit(lsn, rec))
		if err != nil || lsn2 != lsn || !reflect.DeepEqual(rec2, rec) {
			t.Fatalf("re-decode of %+v = %d %+v %v", rec, lsn2, rec2, err)
		}
	})
}

// TestGoldenCheckpoint pins the bytes of an installed checkpoint file:
// header, paged-meta and footer frames.
func TestGoldenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, nil, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint.hex", got)
}

// FuzzReadCheckpoint: whatever bytes a CHECKPOINT file holds, the reader
// returns an error or a checkpoint with its meta frame, and never panics
// or sizes an allocation from an unchecked count. Each input is read as
// a whole file, and as the meta frame of the golden file's header and
// footer: frame CRCs keep most mutations of a whole file from reaching
// the meta decoder. Seeded with a current (format 6) file, its meta
// frame, and format-4 and format-5 files.
func FuzzReadCheckpoint(f *testing.F) {
	golden := goldenBytes(f, "checkpoint.hex")
	frames := checkpointFrames(f, golden)
	f.Add(golden)
	f.Add(frames[1])
	f.Add(goldenBytes(f, "checkpoint-v4.hex"))
	f.Add(goldenBytes(f, "checkpoint-v5.hex"))
	f.Fuzz(func(t *testing.T, b []byte) {
		asMeta := record.AppendFrame(record.AppendFrame(record.AppendFrame(nil, frames[0]), b), frames[2])
		for _, file := range [][]byte{b, asMeta} {
			info, err := parseCheckpoint("CHECKPOINT", file)
			if err == nil && (info.Paged == nil || len(info.Paged.Shards) != info.Shards) {
				t.Fatalf("accepted checkpoint without a matching meta frame: %+v", info)
			}
		}
	})
}
