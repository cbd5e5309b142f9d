package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestMagneticImageSnapshot(t *testing.T) {
	d := NewMagneticDisk(64, CostModel{})
	p1, _ := d.Alloc()
	p2, _ := d.Alloc()
	p3, _ := d.Alloc()
	d.Write(p1, []byte("one"))
	d.Write(p2, []byte("two"))
	d.Free(p3)

	img := d.Image()
	if img.PageSize != 64 || string(img.Pages[p1]) != "one" || string(img.Pages[p2]) != "two" {
		t.Fatalf("image contents: %+v", img)
	}
	if img.Live[p3] || len(img.Free) != 1 || img.Free[0] != p3 {
		t.Fatalf("freed page not on the image's free list: live=%v free=%v", img.Live, img.Free)
	}
	if img.Stats != d.Stats() {
		t.Errorf("image stats %+v, device %+v", img.Stats, d.Stats())
	}
	// The image is a deep copy: later writes leave it untouched.
	d.Write(p1, []byte("changed"))
	if string(img.Pages[p1]) != "one" {
		t.Error("image aliases the device's pages")
	}
}

func TestWORMImageSnapshot(t *testing.T) {
	d := NewWORMDisk(WORMConfig{SectorSize: 32, PlatterSectors: 8, Drives: 2})
	addr, _ := d.Append(bytes.Repeat([]byte("x"), 70))
	ext, _ := d.AllocExtent(3)
	d.WriteSector(ext, []byte("extent0"))

	img := d.Image()
	if img.SectorSize != 32 || img.PlatterSectors != 8 || img.Drives != 2 || img.Reserved != ext+3 {
		t.Fatalf("image geometry: %+v", img)
	}
	if img.Stats != d.Stats() {
		t.Errorf("image stats %+v, device %+v", img.Stats, d.Stats())
	}
	if img.Sectors[addr.Off] == nil || !bytes.HasPrefix(img.Sectors[ext], []byte("extent0")) {
		t.Fatal("burned sectors missing from the image")
	}
	if img.Sectors[ext+1] != nil {
		t.Error("reserved-but-unburned sector has contents in the image")
	}
	// Deep copy: a later burn does not appear in the image.
	d.WriteSector(ext+1, []byte("extent1"))
	if img.Sectors[ext+1] != nil {
		t.Error("image aliases the device's sectors")
	}
}

func TestWORMReadAtUnburnedRun(t *testing.T) {
	d := NewWORMDisk(WORMConfig{SectorSize: 16})
	ext, _ := d.AllocExtent(2)
	if _, err := d.ReadAt(Addr{Kind: KindWORM, Off: ext, Len: 20}); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("ReadAt over unburned sectors = %v", err)
	}
}

func TestFaultyPagesAllocAndRead(t *testing.T) {
	d := NewMagneticDisk(32, CostModel{})
	f := NewFaultyPages(d)
	f.FailAfter("alloc", 1)
	if _, err := f.Alloc(); !errors.Is(err, ErrInjected) {
		t.Fatalf("alloc fault = %v", err)
	}
	p, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f.Write(p, []byte("x"))
	f.FailAfter("read", 1)
	if _, err := f.Read(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("read fault = %v", err)
	}
	if got, err := f.Read(p); err != nil || string(got) != "x" {
		t.Fatalf("read after fault = %q, %v", got, err)
	}
}
