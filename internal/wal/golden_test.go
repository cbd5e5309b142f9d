package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
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
// in the header: the meta frame's images name them); checkpoint-v4.hex keeps
// the format-4 bytes, which the reader must refuse by name.
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
// the meta decoder. Seeded with a current (format 5) file, its meta
// frame, and a format-4 file.
func FuzzReadCheckpoint(f *testing.F) {
	golden := goldenBytes(f, "checkpoint.hex")
	frames := checkpointFrames(f, golden)
	f.Add(golden)
	f.Add(frames[1])
	f.Add(goldenBytes(f, "checkpoint-v4.hex"))
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
