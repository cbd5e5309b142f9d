package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/txn"
)

// checkGolden compares got with the hex dump in testdata/name. The
// dumps were captured from the commit before internal/record became the
// only frame codec: a mismatch means the on-disk format moved, and a
// directory written by an older binary would no longer open.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	dump, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(dump)), ""))
	if err != nil {
		t.Fatalf("testdata/%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: on-disk bytes changed\n got %x\nwant %x", name, got, want)
	}
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
