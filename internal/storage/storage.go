// Package storage simulates the two-tier storage hierarchy the TSB-tree is
// designed for (Lomet & Salzberg, SIGMOD 1989, §1):
//
//   - a MagneticDisk: an erasable random-access page device holding the
//     current database and all index nodes that reference it, and
//   - a WORMDisk: a write-once random-access sector device holding the
//     historical database. A sector, once written, is burned (the paper's
//     error-correcting-code argument) and can never be rewritten; writing
//     less than a full sector wastes the remainder.
//
// Both devices keep the accounting the paper's evaluation plan calls for
// (SpaceM, SpaceO, payload vs. burned bytes) plus an access-cost model with
// the paper's quoted characteristics: optical seeks ~3× slower than
// magnetic, and ~20 s robot mount delays when a platter of an optical
// library is not on line.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// DeviceKind identifies which simulated device an address refers to.
type DeviceKind uint8

const (
	// KindNone is the kind of the nil address.
	KindNone DeviceKind = iota
	// KindMagnetic addresses a page on the erasable magnetic disk.
	KindMagnetic
	// KindWORM addresses a sector run on the write-once optical disk.
	KindWORM
)

// String names the device kind.
func (k DeviceKind) String() string {
	switch k {
	case KindMagnetic:
		return "mag"
	case KindWORM:
		return "worm"
	default:
		return "nil"
	}
}

// Addr locates a node on one of the devices. For magnetic addresses Off is
// a page number and Len is unused (a page is always PageSize bytes). For
// WORM addresses Off is the first sector and Len the byte length of the
// payload — exactly the <address, length> pair the paper says an index
// pointer to a historical node must record (§3.4).
type Addr struct {
	Kind DeviceKind
	Off  uint64
	Len  uint32
}

// NilAddr is the zero address, meaning "no node".
var NilAddr = Addr{}

// IsNil reports whether the address refers to no node.
func (a Addr) IsNil() bool { return a.Kind == KindNone }

// IsWORM reports whether the address refers to the historical device.
func (a Addr) IsWORM() bool { return a.Kind == KindWORM }

// IsMagnetic reports whether the address refers to the current device.
func (a Addr) IsMagnetic() bool { return a.Kind == KindMagnetic }

// String renders the address for debugging.
func (a Addr) String() string {
	if a.IsNil() {
		return "<nil>"
	}
	if a.Kind == KindWORM {
		return fmt.Sprintf("worm:%d+%d", a.Off, a.Len)
	}
	return fmt.Sprintf("mag:%d", a.Off)
}

// Errors reported by the devices.
var (
	// ErrBurned is returned when a write targets an already-burned WORM
	// sector: the defining property of write-once media.
	ErrBurned = errors.New("storage: sector already burned")
	// ErrUnwritten is returned when a read targets a sector or page that
	// has never been written.
	ErrUnwritten = errors.New("storage: unwritten location")
	// ErrBadPage is returned for operations on unallocated or
	// out-of-range pages.
	ErrBadPage = errors.New("storage: bad page")
	// ErrTooLarge is returned when data exceeds the page or sector size.
	ErrTooLarge = errors.New("storage: data exceeds block size")
)

// CostModel holds the simulated latency parameters. The defaults follow the
// paper's quoted characteristics: optical seek times longer than magnetic
// "by about a factor of three" and "around 20 seconds ... to mount a disk
// which is not already on line" (§1).
type CostModel struct {
	MagneticAccess time.Duration // seek+rotate per magnetic page I/O
	MagneticXfer   time.Duration // transfer per page
	OpticalAccess  time.Duration // seek+rotate per optical access
	OpticalXfer    time.Duration // transfer per sector
	MountDelay     time.Duration // robot mount of an off-line platter
}

// DefaultCostModel returns latencies typical of the paper's era.
func DefaultCostModel() CostModel {
	return CostModel{
		MagneticAccess: 16 * time.Millisecond,
		MagneticXfer:   1 * time.Millisecond,
		OpticalAccess:  48 * time.Millisecond, // 3× magnetic
		OpticalXfer:    3 * time.Millisecond,
		MountDelay:     20 * time.Second,
	}
}

// MagneticStats is a snapshot of magnetic-disk accounting.
type MagneticStats struct {
	Reads      uint64
	Writes     uint64
	Allocs     uint64
	Frees      uint64
	PagesInUse int
	HighWater  int           // maximum pages ever simultaneously in use
	SimTime    time.Duration // accumulated simulated access latency
}

// BytesInUse returns the magnetic space consumed, in bytes, assuming whole
// pages (this is SpaceM in the paper's cost function).
func (s MagneticStats) BytesInUse(pageSize int) uint64 {
	return uint64(s.PagesInUse) * uint64(pageSize)
}

// MagneticDisk is the erasable random-access device holding the current
// database. Pages can be allocated, rewritten in place, and freed.
// It is safe for concurrent use.
type MagneticDisk struct {
	mu       sync.Mutex //tsb:latch level=8 name=magnetic-disk
	pageSize int
	cost     CostModel
	pages    [][]byte // nil slot = never allocated or freed
	live     []bool
	free     []uint64
	stats    MagneticStats
}

// NewMagneticDisk returns an empty magnetic disk with the given page size.
func NewMagneticDisk(pageSize int, cost CostModel) *MagneticDisk {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	return &MagneticDisk{pageSize: pageSize, cost: cost}
}

// PageSize returns the fixed page size in bytes.
func (d *MagneticDisk) PageSize() int { return d.pageSize }

// Alloc reserves a fresh (or recycled) page and returns its page number.
func (d *MagneticDisk) Alloc() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var p uint64
	if n := len(d.free); n > 0 {
		p = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		p = uint64(len(d.pages))
		d.pages = append(d.pages, nil)
		d.live = append(d.live, false)
	}
	d.live[p] = true
	d.stats.Allocs++
	d.stats.PagesInUse++
	if d.stats.PagesInUse > d.stats.HighWater {
		d.stats.HighWater = d.stats.PagesInUse
	}
	return p, nil
}

// Write stores data (at most one page) at page p, overwriting any previous
// contents. This erasability is what distinguishes the current database's
// device from the WORM (§1: references to migrating data must be
// changeable, and aborted transactions' data must be erasable).
func (d *MagneticDisk) Write(p uint64, data []byte) error {
	if len(data) > d.pageSize {
		return fmt.Errorf("%w: %d > page size %d", ErrTooLarge, len(data), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p >= uint64(len(d.pages)) || !d.live[p] {
		return fmt.Errorf("%w: write to page %d", ErrBadPage, p)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.pages[p] = buf
	d.stats.Writes++
	d.stats.SimTime += d.cost.MagneticAccess + d.cost.MagneticXfer
	return nil
}

// Read returns a copy of the contents of page p.
func (d *MagneticDisk) Read(p uint64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p >= uint64(len(d.pages)) || !d.live[p] {
		return nil, fmt.Errorf("%w: read of page %d", ErrBadPage, p)
	}
	if d.pages[p] == nil {
		return nil, fmt.Errorf("%w: page %d", ErrUnwritten, p)
	}
	d.stats.Reads++
	d.stats.SimTime += d.cost.MagneticAccess + d.cost.MagneticXfer
	out := make([]byte, len(d.pages[p]))
	copy(out, d.pages[p])
	return out, nil
}

// Free releases page p for reuse.
func (d *MagneticDisk) Free(p uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p >= uint64(len(d.pages)) || !d.live[p] {
		return fmt.Errorf("%w: free of page %d", ErrBadPage, p)
	}
	d.live[p] = false
	d.pages[p] = nil
	d.free = append(d.free, p)
	d.stats.Frees++
	d.stats.PagesInUse--
	return nil
}

// Stats returns a snapshot of the accounting counters.
func (d *MagneticDisk) Stats() MagneticStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// PageStore is the page-device interface the trees build on. *MagneticDisk
// implements it directly; buffer.Pool implements it as a caching layer.
// Read returns a buffer the caller owns: the TSB-tree decodes a node as
// views over it.
type PageStore interface {
	Alloc() (uint64, error)
	Read(p uint64) ([]byte, error)
	Write(p uint64, data []byte) error
	Free(p uint64) error
	PageSize() int
}

var _ PageStore = (*MagneticDisk)(nil)

// PageDevice is the full magnetic-device contract: a PageStore that also
// keeps the paper's SpaceM accounting. *MagneticDisk (the simulated
// device) and pagestore.PageFile (the file-backed device) both satisfy
// it.
type PageDevice interface {
	PageStore
	Stats() MagneticStats
}

var _ PageDevice = (*MagneticDisk)(nil)

// WORMDevice is the historical-device contract the trees build on: the
// consolidated-append migration path of §3.4 plus the SpaceO and
// burned-vs-payload accounting. *WORMDisk (the simulated device, which
// additionally offers the WOBT's extent/sector interface) and
// pagestore.BurnFile (the file-backed device) both satisfy it.
type WORMDevice interface {
	SectorSize() int
	//tsb:io
	//tsb:sticky
	Append(data []byte) (Addr, error)
	// ReadAt returns a buffer the caller owns, as PageStore.Read does.
	ReadAt(addr Addr) ([]byte, error)
	Stats() WORMStats
}

var _ WORMDevice = (*WORMDisk)(nil)
