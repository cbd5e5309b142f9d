package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func pageCfg(t *testing.T) Config {
	t.Helper()
	return Config{Path: filepath.Join(t.TempDir(), "pages.dev"), PageSize: 128}
}

func TestPageFileRoundTrip(t *testing.T) {
	cfg := pageCfg(t)
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pages []uint64
	for i := 0; i < 10; i++ {
		p, err := pf.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
		if err := pf.Write(p, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		got, err := pf.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("payload-%02d", i); string(got) != want {
			t.Fatalf("page %d = %q, want %q", p, got, want)
		}
	}
	if _, err := pf.Read(99); !errors.Is(err, storage.ErrBadPage) {
		t.Fatalf("read of unallocated page: %v", err)
	}
	st := pf.Stats()
	if st.PagesInUse != 10 || st.Writes != 10 {
		t.Fatalf("stats: %+v", st)
	}
	pf.Close()
}

func TestPageFileCRC(t *testing.T) {
	cfg := pageCfg(t)
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pf.Alloc()
	if err := pf.Write(p, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := pf.CompleteFlush(1, pf.Pages()); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	// Flip one payload byte on disk: the read must fail, loudly.
	raw, err := os.ReadFile(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[fileHeaderSize+pageFrameHeader+2] ^= 0xFF
	if err := os.WriteFile(cfg.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg, AllocState{Pages: 1}, storage.MagneticStats{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Read(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of corrupted page: %v", err)
	}
}

// TestPageFileJournalRestore is the torn-flush property at device
// level: overwrite pages through the journal protocol, "crash" before
// CompleteFlush, reopen with the old epoch — every page must read its
// OLD content and pages beyond the old boundary must be gone.
func TestPageFileJournalRestore(t *testing.T) {
	cfg := pageCfg(t)
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p, _ := pf.Alloc()
		if err := pf.Write(p, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint 1 installed: boundary = 4 pages, epoch 1.
	if err := pf.CompleteFlush(1, 4); err != nil {
		t.Fatal(err)
	}

	// A new flush overwrites two pages and adds a fifth — then crashes
	// (no CompleteFlush).
	p4, _ := pf.Alloc()
	if err := pf.WriteBatch([]uint64{1, 3, p4}, [][]byte{[]byte("new-1"), []byte("new-3"), []byte("new-4")}); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	re, err := Open(cfg, AllocState{Pages: 4}, storage.MagneticStats{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 4; i++ {
		got, err := re.Read(uint64(i))
		if err != nil {
			t.Fatalf("page %d after restore: %v", i, err)
		}
		if want := fmt.Sprintf("old-%d", i); string(got) != want {
			t.Fatalf("page %d = %q after restore, want %q", i, got, want)
		}
	}
	if _, err := re.Read(4); !errors.Is(err, storage.ErrBadPage) {
		t.Fatalf("page past the boundary survived: %v", err)
	}
	if _, err := os.Stat(cfg.Path + ".journal"); !os.IsNotExist(err) {
		t.Fatal("journal survived recovery")
	}
}

// TestPageFileJournalStale: after CompleteFlush the journal is gone; a
// reopen at the NEW epoch must see the new content.
func TestPageFileJournalStale(t *testing.T) {
	cfg := pageCfg(t)
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pf.Alloc()
	if err := pf.Write(p, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := pf.CompleteFlush(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := pf.Write(p, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.CompleteFlush(2, 1); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	re, err := Open(cfg, AllocState{Pages: 1}, storage.MagneticStats{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Read(p)
	if err != nil || string(got) != "v2" {
		t.Fatalf("page = %q, %v; want v2", got, err)
	}
}

// TestPageFileTornJournalHeader: a journal whose header never made it
// to disk means no page was touched; recovery ignores it.
func TestPageFileTornJournalHeader(t *testing.T) {
	cfg := pageCfg(t)
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pf.Alloc()
	if err := pf.Write(p, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := pf.CompleteFlush(1, 1); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	if err := os.WriteFile(cfg.Path+".journal", []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg, AllocState{Pages: 1}, storage.MagneticStats{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.Read(p); err != nil || string(got) != "v1" {
		t.Fatalf("page = %q, %v; want v1", got, err)
	}
}

func burnCfg(t *testing.T) BurnConfig {
	t.Helper()
	return BurnConfig{Path: filepath.Join(t.TempDir(), "worm.dev"), SectorSize: 64}
}

func TestBurnFileRoundTrip(t *testing.T) {
	cfg := burnCfg(t)
	bf, err := CreateBurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := []byte("tiny")
	big := bytes.Repeat([]byte("0123456789abcdef"), 11) // 176 bytes: 3 sectors
	a1, err := bf.Append(small)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := bf.Append(big)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		addr storage.Addr
		want []byte
	}{{a1, small}, {a2, big}} {
		got, err := bf.ReadAt(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("ReadAt(%v) = %d bytes, want %d", tc.addr, len(got), len(tc.want))
		}
	}
	st := bf.Stats()
	if st.SectorsBurned != 4 || st.PayloadBytes != uint64(len(small)+len(big)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.WastedBytes != 4*64-st.PayloadBytes {
		t.Fatalf("waste accounting: %+v", st)
	}
	bf.Close()
}

// TestBurnFileTornTail: sectors past the durable boundary are verified
// on reopen; the torn one and everything after it are clipped, intact
// orphans are kept as burned waste.
func TestBurnFileTornTail(t *testing.T) {
	cfg := burnCfg(t)
	bf, err := CreateBurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.Append(bytes.Repeat([]byte("d"), 150)); err != nil { // 3 sectors, durable
		t.Fatal(err)
	}
	if err := bf.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := bf.Burned()
	statsAt := bf.Stats()
	if _, err := bf.Append([]byte("orphan-intact")); err != nil { // sector 3
		t.Fatal(err)
	}
	if _, err := bf.Append([]byte("will-be-torn")); err != nil { // sector 4
		t.Fatal(err)
	}
	bf.Close()

	// Corrupt sector 4's payload: simulated torn write.
	raw, err := os.ReadFile(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	off := fileHeaderSize + 4*(burnFrameHeader+64) + burnFrameHeader
	raw[off] ^= 0xFF
	if err := os.WriteFile(cfg.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, rep, err := OpenBurn(cfg, durable, statsAt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !rep.Clipped || rep.ClippedAt != 4 {
		t.Fatalf("reopen report: %+v, want clip at sector 4", rep)
	}
	if rep.OrphanSectors != 1 {
		t.Fatalf("reopen report: %+v, want 1 orphan", rep)
	}
	if re.Burned() != 4 {
		t.Fatalf("burned = %d, want 4", re.Burned())
	}
	// New appends land after the orphan, never overlapping it.
	a, err := re.Append([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Off != 4 {
		t.Fatalf("post-crash append at sector %d, want 4", a.Off)
	}
	if got, err := re.ReadAt(a); err != nil || string(got) != "after-crash" {
		t.Fatalf("ReadAt after clip: %q, %v", got, err)
	}
	// The orphan stays burned: waste accounting includes it.
	if st := re.Stats(); st.SectorsBurned != 5 {
		t.Fatalf("sectors burned = %d, want 5 (3 durable + 1 orphan + 1 new)", st.SectorsBurned)
	}
}

func TestInspectors(t *testing.T) {
	dir := t.TempDir()
	pagePath, burnPath := Paths(dir)
	pf, err := Create(Config{Path: pagePath, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, _ := pf.Alloc()
		if err := pf.Write(p, []byte(fmt.Sprintf("page-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pf.Close()
	bf, err := CreateBurn(BurnConfig{Path: burnPath, SectorSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.Append(bytes.Repeat([]byte("s"), 100)); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	var pagesSeen, pagesOK int
	size, n, err := InspectPages(pagePath, func(info PageInfo) error {
		pagesSeen++
		if info.Written && info.CRCOK {
			pagesOK++
		}
		return nil
	})
	if err != nil || size != 128 || n != 3 || pagesSeen != 3 || pagesOK != 3 {
		t.Fatalf("InspectPages: size=%d n=%d seen=%d ok=%d err=%v", size, n, pagesSeen, pagesOK, err)
	}
	var payload int
	ssize, sn, err := InspectSectors(burnPath, func(info SectorInfo) error {
		if !info.CRCOK {
			t.Fatalf("sector %d bad CRC", info.Sector)
		}
		payload += info.Len
		return nil
	})
	if err != nil || ssize != 64 || sn != 2 || payload != 100 {
		t.Fatalf("InspectSectors: size=%d n=%d payload=%d err=%v", ssize, sn, payload, err)
	}
}

// flakyFile fails the Nth Sync call (1-based), then recovers: the
// transient-error model the journal protocol must survive.
type flakyFile struct {
	storage.BlockFile
	syncs     int
	failSyncN int
}

func (f *flakyFile) Sync() error {
	f.syncs++
	if f.syncs == f.failSyncN {
		return fmt.Errorf("flaky: injected sync failure %d", f.syncs)
	}
	return f.BlockFile.Sync()
}

// TestPageFileRetryAfterJournalSyncFailure: a WriteBatch whose journal
// sync fails must leave every page of the batch eligible for
// re-journaling — a retried flush followed by a crash must still
// restore the boundary image.
func TestPageFileRetryAfterJournalSyncFailure(t *testing.T) {
	cfg := pageCfg(t)
	var flaky *flakyFile
	cfg.Wrap = func(f storage.BlockFile) storage.BlockFile {
		// Only the journal gets wrapped flakily: it is the SECOND file
		// opened (the page file is first).
		if flaky == nil {
			return f
		}
		flaky.BlockFile = f
		return flaky
	}
	pf, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pf.Alloc()
	if err := pf.Write(p, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.CompleteFlush(1, 1); err != nil {
		t.Fatal(err)
	}

	// Next flush: the journal's entry-batch sync (sync #2: header is
	// #1) fails, so WriteBatch must fail WITHOUT touching the slot.
	flaky = &flakyFile{failSyncN: 2}
	if err := pf.WriteBatch([]uint64{p}, [][]byte{[]byte("new1")}); err == nil {
		t.Fatal("WriteBatch survived a journal sync failure")
	}
	// Retry succeeds — and must journal the old bytes NOW.
	if err := pf.WriteBatch([]uint64{p}, [][]byte{[]byte("new2")}); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash before CompleteFlush: reopen at the old epoch must restore
	// the OLD content (possible only if the retry journaled it).
	pf.Close()
	cfg.Wrap = nil
	re, err := Open(cfg, AllocState{Pages: 1}, storage.MagneticStats{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Read(p)
	if err != nil || string(got) != "old" {
		t.Fatalf("page = %q, %v after torn retried flush; want old", got, err)
	}
}
