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
	copies := pool.CaptureDirty(NoTag)
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
	copies := pool.CaptureDirty(NoTag)
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
	copies := pool.CaptureDirty(NoTag)
	if err := pool.Write(p, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	pool.MarkClean(copies)
	if n := pool.DirtyCount(); n != 1 {
		t.Fatalf("re-dirtied page marked clean (dirty = %d)", n)
	}
	again := pool.CaptureDirty(NoTag)
	if len(again) != 1 || string(again[0].Data) != "v2" {
		t.Fatalf("recapture: %+v", again)
	}
}

// TestWritebackTags: tagged views partition the dirty table into flush
// groups.
func TestWritebackTags(t *testing.T) {
	dev := newDev()
	pool := NewWritebackPool(dev, 8)
	s0 := pool.Tagged(0)
	s1 := pool.Tagged(1)
	p0, _ := s0.Alloc()
	p1, _ := s1.Alloc()
	if err := s0.Write(p0, []byte("shard0")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Write(p1, []byte("shard1")); err != nil {
		t.Fatal(err)
	}
	c0 := pool.CaptureDirty(0)
	if len(c0) != 1 || c0[0].Page != p0 {
		t.Fatalf("tag 0 capture: %+v", c0)
	}
	c1 := pool.CaptureDirty(1)
	if len(c1) != 1 || c1[0].Page != p1 {
		t.Fatalf("tag 1 capture: %+v", c1)
	}
	if none := pool.CaptureDirty(NoTag); len(none) != 0 {
		t.Fatalf("untagged capture took tagged pages: %+v", none)
	}
	if all := pool.CaptureDirtyGroups(); len(all) != 2 {
		t.Fatalf("all-groups capture: %+v", all)
	}
}

// TestCaptureDirtyGroups: one walk buckets every flush group.
func TestCaptureDirtyGroups(t *testing.T) {
	dev := newDev()
	pool := NewWritebackPool(dev, 8)
	if pool.CaptureDirtyGroups() != nil {
		t.Fatal("groups of a clean pool should be nil")
	}
	for tag := 0; tag < 3; tag++ {
		view := pool.Tagged(tag)
		for i := 0; i <= tag; i++ {
			p, _ := view.Alloc()
			if err := view.Write(p, []byte{byte(tag)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	groups := pool.CaptureDirtyGroups()
	for tag := 0; tag < 3; tag++ {
		if len(groups[tag]) != tag+1 {
			t.Fatalf("group %d has %d pages, want %d", tag, len(groups[tag]), tag+1)
		}
		for _, cp := range groups[tag] {
			if cp.Data[0] != byte(tag) {
				t.Fatalf("group %d captured foreign page %d", tag, cp.Page)
			}
		}
	}
}
