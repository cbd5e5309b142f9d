package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

func TestRun(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "tsb-lastupdate", 600, 0.5, 1, true, 5); err != nil {
		t.Fatal(err)
	}
	// -scan 5 prints exactly 5 records, in ascending key order.
	out := sb.String()
	_, scanned, ok := strings.Cut(out, "first 5 records of the snapshot")
	if !ok {
		t.Fatalf("no scan header in:\n%s", out)
	}
	lines := strings.Split(scanned, "\n")[1:]
	var keys []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "  ") {
			break
		}
		keys = append(keys, strings.Fields(l)[0])
	}
	if len(keys) != 5 {
		t.Fatalf("-scan 5 printed %d records: %q", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("-scan keys out of order: %q", keys)
		}
	}
}

func TestRunRejectsBadPolicy(t *testing.T) {
	if err := run(io.Discard, "bogus", 100, 0.5, 1, false, 0); err == nil {
		t.Fatal("bogus policy should fail")
	}
}

func TestDumpWALDir(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("key"), []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// While the database is open the five commits are a WAL tail; Close
	// ends at a checkpoint covering them, which leaves no tail at all.
	dump := func(wants ...string) {
		t.Helper()
		var sb strings.Builder
		if err := dumpWALDir(&sb, dir); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("dump missing %q:\n%s", want, out)
			}
		}
	}
	dump("checkpoint: format v4", "2 shard(s)", "devices: epoch", "lsn 5", "tail: clean", "5 commit record(s)")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	dump("LSN boundary 5", "total: 0 commit record(s)", "pending at boundary: 0 key(s), erased on recovery")

	// A transaction open across a checkpoint leaves its pending version
	// in the image, and the checkpoint names it.
	d, err = db.Open(db.Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	if err := tx.Put(record.StringKey("open"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dump("pending at boundary: 1 key(s), erased on recovery")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	dump("pending at boundary: 0 key(s), erased on recovery")
}

func TestDumpWALDirEmpty(t *testing.T) {
	var sb strings.Builder
	if err := dumpWALDir(&sb, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "checkpoint: none") || !strings.Contains(out, "no segments") {
		t.Errorf("empty dir dump:\n%s", out)
	}
}

func TestDumpPagedDir(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Config{Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("key"+string(rune('a'+i%26))), []byte("0123456789abcdef0123456789"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := dumpPagedDir(&sb, dir); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"format v4, epoch", "page file", "crc ok", "burn file",
		"live payload", "dead payload, utilization", "0 bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("paged dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "journal") {
		t.Errorf("cleanly closed directory reported a journal:\n%s", out)
	}

	// A compaction journal an older release left beside the burn file is
	// named, not passed over in silence.
	if err := os.WriteFile(filepath.Join(dir, "worm.dev.journal"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := dumpPagedDir(&sb, dir); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "retired compaction journal: PRESENT") {
		t.Errorf("paged dump does not report the retired compaction journal:\n%s", out)
	}
}

// TestDumpPagedDirRejectsLogical: a directory whose checkpoint is the
// retired logical format (3) is reported as such, not dumped as empty.
func TestDumpPagedDirRejectsLogical(t *testing.T) {
	dir := t.TempDir()
	e := record.NewEncoder(nil)
	e.Byte(2)    // checkpoint header frame
	e.Uvarint(3) // format
	if err := os.WriteFile(filepath.Join(dir, "CHECKPOINT"), record.AppendFrame(nil, e.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dump := range map[string]func(io.Writer, string) error{"pagedir": dumpPagedDir, "waldir": dumpWALDir} {
		var sb strings.Builder
		if err := dump(&sb, dir); !errors.Is(err, wal.ErrRetiredFormat) || !strings.Contains(err.Error(), "logical") {
			t.Fatalf("-%s on a format-3 directory: %v", name, err)
		}
	}
}
