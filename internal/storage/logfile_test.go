package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// memLogFile is an in-memory LogFile for exercising the tear wrapper.
type memLogFile struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memLogFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memLogFile) Sync() error                 { m.syncs++; return nil }
func (m *memLogFile) Close() error                { m.closed = true; return nil }

func TestTornLogFileTearsAtBudget(t *testing.T) {
	inner := &memLogFile{}
	plan := NewTearPlan(10)
	f := NewTornLogFile(inner, plan)

	if n, err := f.Write([]byte("0123456")); err != nil || n != 7 {
		t.Fatalf("write before budget: n=%d err=%v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync before budget: %v", err)
	}
	// This write crosses the 10-byte budget: only 3 more bytes persist.
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write error = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("crossing write persisted %d bytes, want 3", n)
	}
	if got := inner.buf.String(); got != "0123456abc" {
		t.Fatalf("durable bytes = %q, want %q", got, "0123456abc")
	}
	// The device is dead: nothing further persists, syncs fail.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after death = %v, want ErrInjected", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after death = %v, want ErrInjected", err)
	}
	if got := inner.buf.String(); got != "0123456abc" {
		t.Fatalf("durable bytes after death = %q", got)
	}
	if err := f.Close(); err != nil || !inner.closed {
		t.Fatalf("close: err=%v closed=%v", err, inner.closed)
	}
}

func TestTearPlanSharedAcrossFiles(t *testing.T) {
	plan := NewTearPlan(5)
	a := NewTornLogFile(&memLogFile{}, plan)
	bInner := &memLogFile{}
	b := NewTornLogFile(bInner, plan)

	if _, err := a.Write([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	// 1 byte of budget left: the second file's write tears.
	n, err := b.Write([]byte("56"))
	if !errors.Is(err, ErrInjected) || n != 1 {
		t.Fatalf("shared tear: n=%d err=%v", n, err)
	}
	if got := bInner.buf.String(); got != "5" {
		t.Fatalf("second file durable bytes = %q, want %q", got, "5")
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first file should share the death: %v", err)
	}
}

func TestNilTearPlanPassesThrough(t *testing.T) {
	inner := &memLogFile{}
	f := NewTornLogFile(inner, nil)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if inner.buf.String() != "hello" || inner.syncs != 1 {
		t.Fatalf("pass-through failed: %q syncs=%d", inner.buf.String(), inner.syncs)
	}
}

// TestTearPlanCrashKeepsSyncedPrefix: a crash cuts each file opened
// under the plan back to its length at its last landed Sync; a file
// never synced comes back empty, a removed one stays removed, and the
// device is dead afterwards.
func TestTearPlanCrashKeepsSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	plan := NewTearPlan(1 << 40)
	open := func(name string) *TornLogFile {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return NewTornLogFile(f, plan)
	}
	write := func(f *TornLogFile, s string) {
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	synced, unsynced, gone := open("synced"), open("unsynced"), open("gone")
	write(synced, "durable")
	if err := synced.Sync(); err != nil {
		t.Fatal(err)
	}
	write(synced, "+lost")
	write(unsynced, "lost")
	for _, f := range []*TornLogFile{synced, unsynced, gone} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, "gone")); err != nil {
		t.Fatal(err)
	}
	if err := plan.Crash(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"synced": "durable", "unsynced": ""} {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != want {
			t.Fatalf("%s after the crash = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("a removed file came back: %v", err)
	}
	if _, err := open("after").Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after the crash = %v, want the dead device", err)
	}
}
