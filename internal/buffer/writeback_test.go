package buffer

import (
	"fmt"
	"testing"
)

// TestWritebackBuffersWrites: in writeback mode the device sees nothing
// until a capture is flushed back.
func TestWritebackBuffersWrites(t *testing.T) {
	dev := newDev()
	pool := NewWritebackPool(dev, 4)
	p, _ := pool.Alloc()
	if err := pool.Write(p, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Writes != 0 {
		t.Fatal("writeback write reached the device")
	}
	if got, err := pool.Read(p); err != nil || string(got) != "dirty" {
		t.Fatalf("read through dirty frame: %q, %v", got, err)
	}
	if n := pool.DirtyCount(); n != 1 {
		t.Fatalf("DirtyCount = %d", n)
	}
	copies := pool.CaptureDirty()
	if len(copies) != 1 || string(copies[0].Data) != "dirty" {
		t.Fatalf("capture: %+v", copies)
	}
	if err := dev.Write(copies[0].Page, copies[0].Data); err != nil {
		t.Fatal(err)
	}
	pool.MarkClean(copies)
	if n := pool.DirtyCount(); n != 0 {
		t.Fatalf("DirtyCount after MarkClean = %d", n)
	}
	if st := pool.Stats(); st.FlushedPages != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWritebackNoSteal: dirty pages are never evicted; the pool grows
// past capacity instead and trims after the flush.
func TestWritebackNoSteal(t *testing.T) {
	dev := newDev()
	pool := NewWritebackPool(dev, 2)
	var pages []uint64
	for i := 0; i < 6; i++ {
		p, _ := pool.Alloc()
		pages = append(pages, p)
		if err := pool.Write(p, []byte(fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// All six dirty frames must still be readable from memory — the
	// device has nothing.
	for i, p := range pages {
		got, err := pool.Read(p)
		if err != nil || string(got) != fmt.Sprintf("d%d", i) {
			t.Fatalf("dirty page %d lost: %q, %v", p, got, err)
		}
	}
	st := pool.Stats()
	if st.DirtyPages != 6 || st.Overflows == 0 {
		t.Fatalf("stats: %+v", st)
	}
	copies := pool.CaptureDirty()
	for _, cp := range copies {
		if err := dev.Write(cp.Page, cp.Data); err != nil {
			t.Fatal(err)
		}
	}
	pool.MarkClean(copies)
	if st := pool.Stats(); st.DirtyPages != 0 {
		t.Fatalf("dirty after flush: %+v", st)
	}
	// Trimmed back to capacity; evicted pages reload from the device.
	for i, p := range pages {
		got, err := pool.Read(p)
		if err != nil || string(got) != fmt.Sprintf("d%d", i) {
			t.Fatalf("page %d after trim: %q, %v", p, got, err)
		}
	}
}

// TestWritebackEpochDetectsRewrite: a page re-dirtied after its capture
// stays dirty through MarkClean.
func TestWritebackEpochDetectsRewrite(t *testing.T) {
	dev := newDev()
	pool := NewWritebackPool(dev, 4)
	p, _ := pool.Alloc()
	if err := pool.Write(p, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	copies := pool.CaptureDirty()
	if err := pool.Write(p, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	pool.MarkClean(copies)
	if n := pool.DirtyCount(); n != 1 {
		t.Fatalf("re-dirtied page marked clean (dirty = %d)", n)
	}
	again := pool.CaptureDirty()
	if len(again) != 1 || string(again[0].Data) != "v2" {
		t.Fatalf("recapture: %+v", again)
	}
}

// TestCaptureSurvivesRewrite: a capture shares the frames' buffers, so
// rewriting (or re-reading) a page after its capture must leave the
// captured bytes exactly as they were: a checkpoint flushes them after
// writers have moved on.
func TestCaptureSurvivesRewrite(t *testing.T) {
	dev := newDev()
	pool := NewWritebackPool(dev, 4)
	p, _ := pool.Alloc()
	if err := pool.Write(p, []byte("before")); err != nil {
		t.Fatal(err)
	}
	copies := pool.CaptureDirty()
	if err := pool.Write(p, []byte("AFTER!")); err != nil {
		t.Fatal(err)
	}
	if got, err := pool.Read(p); err != nil || string(got) != "AFTER!" {
		t.Fatalf("read after rewrite: %q, %v", got, err)
	} else {
		copy(got, "xxxxxx") // a caller scribbling on its read result
	}
	if len(copies) != 1 || string(copies[0].Data) != "before" {
		t.Fatalf("captured bytes changed under a rewrite: %+v", copies)
	}
	if got, _ := pool.Read(p); string(got) != "AFTER!" {
		t.Fatalf("frame changed by a caller's read buffer: %q", got)
	}
}
