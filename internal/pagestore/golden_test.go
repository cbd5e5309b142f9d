package pagestore

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares got with the hex dump in testdata/name. The
// dumps were captured from the commit before the two rollback journals
// and the two sector encoders were merged: a mismatch means the on-disk
// format moved, and a directory written (or torn mid-flush) by an older
// binary would no longer recover.
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

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestGoldenFlushJournal pins the bytes of a page-file rollback journal
// holding every entry shape: a written slot's pre-image, a hole (page 4
// is allocated at the boundary but never written), and a page past the
// boundary (no entry — truncation restores it), across two batches.
func TestGoldenFlushJournal(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "pages.dev"), PageSize: 32}
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	for i := 0; i < 5; i++ {
		if _, err := pf.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.WriteBatch([]uint64{0, 1, 2, 3},
		[][]byte{[]byte("old-0"), []byte("old-1"), []byte("old-2"), []byte("old-3")}); err != nil {
		t.Fatal(err)
	}
	if err := pf.CompleteFlush(3, 5); err != nil {
		t.Fatal(err)
	}
	fresh, _ := pf.Alloc()
	if err := pf.WriteBatch([]uint64{1, 4, fresh},
		[][]byte{[]byte("new-1"), []byte("new-4"), []byte("new-5")}); err != nil {
		t.Fatal(err)
	}
	if err := pf.WriteBatch([]uint64{1, 3}, [][]byte{[]byte("newer-1"), []byte("new-3")}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "flush-journal.hex", readFile(t, journalPath(cfg.Path)))
}

// TestGoldenBurnAppend pins the burn file's sector bytes as Append
// writes them: full sectors, a partial last sector, and a one-byte run.
func TestGoldenBurnAppend(t *testing.T) {
	cfg := BurnConfig{Path: filepath.Join(t.TempDir(), "worm.dev"), SectorSize: 16}
	bf, err := CreateBurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	for _, run := range []string{"kept-below-boundary", "dead-run", "live-run-spanning-three-sectors!!!!", "x"} {
		if _, err := bf.Append([]byte(run)); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "burn-appended.hex", readFile(t, cfg.Path))
}
