package storage

import (
	"fmt"
	"sync"
	"time"
)

// WORMStats is a snapshot of write-once device accounting. PayloadBytes vs.
// the total burned capacity (SectorsBurned × sector size) is the space-
// utilization measure behind the paper's headline argument: incremental
// one-entry writes waste most of each sector, while consolidated appends
// "nearly approximate the sector size" (§1).
type WORMStats struct {
	SectorReads   uint64
	SectorWrites  uint64
	Appends       uint64
	SectorsBurned uint64
	PayloadBytes  uint64
	WastedBytes   uint64
	Mounts        uint64        // robot mounts of off-line platters
	SimTime       time.Duration // accumulated simulated access latency
}

// BytesBurned returns the total optical capacity consumed (SpaceO in the
// paper's cost function CS = SpaceM·CM + SpaceO·CO).
func (s WORMStats) BytesBurned(sectorSize int) uint64 {
	return s.SectorsBurned * uint64(sectorSize)
}

// Utilization returns PayloadBytes / BytesBurned, the fraction of burned
// optical capacity holding real data. It is clamped to [0, 1]: an empty
// device divides by zero, and the conservative
// accounting of fault-torn runs can leave the ratio marginally off on
// either side.
func (s WORMStats) Utilization(sectorSize int) float64 {
	burned := s.BytesBurned(sectorSize)
	if burned == 0 {
		return 1
	}
	u := float64(s.PayloadBytes) / float64(burned)
	if u > 1 {
		return 1
	}
	if u < 0 {
		return 0
	}
	return u
}

// WORMDisk simulates a write-once read-many optical device (or a library of
// them). Storage is a growing array of fixed-size sectors; each sector can
// be written exactly once. Two allocation styles are provided, matching the
// two index structures in the paper:
//
//   - AllocExtent + WriteSector: reserve a run of sectors up front and burn
//     them one at a time — how the WOBT grows a node in place (§2.1);
//   - Append: burn a variable-length consolidated run at the end of the
//     device — how the TSB-tree migrates an historical node (§3.4).
//
// If PlatterSectors > 0 the device behaves as a robot library: sector s
// lives on platter s/PlatterSectors, at most Drives platters are on line,
// and touching an off-line platter costs a simulated MountDelay.
// It is safe for concurrent use.
type WORMDisk struct {
	mu         sync.Mutex //tsb:latch level=8 name=worm-disk
	sectorSize int
	cost       CostModel

	sectors  [][]byte // payload per burned sector (nil = unburned)
	reserved uint64   // sectors handed out to extents or appends so far

	platterSectors uint64   // 0 = single always-mounted disk
	drives         int      // online slots when platterSectors > 0
	mounted        []uint64 // LRU list of mounted platters, most recent last

	stats WORMStats
}

// WORMConfig configures a WORMDisk.
type WORMConfig struct {
	SectorSize     int // bytes per sector (paper: "typically about one kilobyte")
	Cost           CostModel
	PlatterSectors uint64 // sectors per platter; 0 disables the library model
	Drives         int    // online drives for the library model
}

// NewWORMDisk returns an empty write-once device.
func NewWORMDisk(cfg WORMConfig) *WORMDisk {
	if cfg.SectorSize <= 0 {
		panic("storage: sector size must be positive")
	}
	drives := cfg.Drives
	if drives <= 0 {
		drives = 1
	}
	return &WORMDisk{
		sectorSize:     cfg.SectorSize,
		cost:           cfg.Cost,
		platterSectors: cfg.PlatterSectors,
		drives:         drives,
	}
}

// SectorSize returns the fixed sector size in bytes.
func (d *WORMDisk) SectorSize() int { return d.sectorSize }

// grow ensures the sector array covers sectors [0, n).
func (d *WORMDisk) grow(n uint64) {
	for uint64(len(d.sectors)) < n {
		d.sectors = append(d.sectors, nil)
	}
}

// touch simulates the access cost for reaching sector s, including a robot
// mount when the platter holding s is not on line.
func (d *WORMDisk) touch(s uint64) {
	d.stats.SimTime += d.cost.OpticalAccess + d.cost.OpticalXfer
	if d.platterSectors == 0 {
		return
	}
	platter := s / d.platterSectors
	for i, p := range d.mounted {
		if p == platter { // already mounted: refresh LRU position
			d.mounted = append(append(d.mounted[:i:i], d.mounted[i+1:]...), platter)
			return
		}
	}
	d.stats.Mounts++
	d.stats.SimTime += d.cost.MountDelay
	if len(d.mounted) >= d.drives {
		d.mounted = d.mounted[1:]
	}
	d.mounted = append(d.mounted, platter)
}

// AllocExtent reserves a run of n consecutive unburned sectors and returns
// the first sector number. The sectors remain unburned until WriteSector.
func (d *WORMDisk) AllocExtent(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("storage: extent size %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	first := d.reserved
	d.reserved += uint64(n)
	d.grow(d.reserved)
	return first, nil
}

// WriteSector burns data (at most one sector) into sector s. Burning the
// same sector twice returns ErrBurned: this is the invariant the whole
// design revolves around.
func (d *WORMDisk) WriteSector(s uint64, data []byte) error {
	if len(data) > d.sectorSize {
		return fmt.Errorf("%w: %d > sector size %d", ErrTooLarge, len(data), d.sectorSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s >= d.reserved {
		return fmt.Errorf("%w: sector %d not allocated", ErrBadPage, s)
	}
	if d.sectors[s] != nil {
		return fmt.Errorf("%w: sector %d", ErrBurned, s)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.sectors[s] = buf
	d.stats.SectorWrites++
	d.stats.SectorsBurned++
	d.stats.PayloadBytes += uint64(len(data))
	d.stats.WastedBytes += uint64(d.sectorSize - len(data))
	d.touch(s)
	return nil
}

// ReadSector returns a copy of the payload burned into sector s.
func (d *WORMDisk) ReadSector(s uint64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s >= uint64(len(d.sectors)) || d.sectors[s] == nil {
		return nil, fmt.Errorf("%w: sector %d", ErrUnwritten, s)
	}
	d.stats.SectorReads++
	d.touch(s)
	out := make([]byte, len(d.sectors[s]))
	copy(out, d.sectors[s])
	return out, nil
}

// IsBurned reports whether sector s has been written.
func (d *WORMDisk) IsBurned(s uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return s < uint64(len(d.sectors)) && d.sectors[s] != nil
}

// Append burns data as a consolidated run of sectors at the end of the
// device and returns its address. All sectors of the run are filled to
// capacity except possibly the last — the TSB-tree's high-utilization
// migration path (§3.4: "the historical data can be appended to a
// sequential file ... it is possible to come close" to exact utilization).
func (d *WORMDisk) Append(data []byte) (Addr, error) {
	if len(data) == 0 {
		return NilAddr, fmt.Errorf("storage: empty append")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	nsect := (len(data) + d.sectorSize - 1) / d.sectorSize
	first := d.reserved
	d.reserved += uint64(nsect)
	d.grow(d.reserved)
	for i := 0; i < nsect; i++ {
		lo := i * d.sectorSize
		hi := lo + d.sectorSize
		if hi > len(data) {
			hi = len(data)
		}
		buf := make([]byte, hi-lo)
		copy(buf, data[lo:hi])
		d.sectors[first+uint64(i)] = buf
		d.stats.SectorsBurned++
	}
	d.stats.Appends++
	d.stats.SectorWrites += uint64(nsect)
	d.stats.PayloadBytes += uint64(len(data))
	d.stats.WastedBytes += uint64(nsect*d.sectorSize - len(data))
	// One seek for the whole sequential run, plus transfer per sector.
	d.stats.SimTime += d.cost.OpticalAccess + time.Duration(nsect)*d.cost.OpticalXfer
	return Addr{Kind: KindWORM, Off: first, Len: uint32(len(data))}, nil
}

// ReadAt reads back the payload of a run written by Append (or, for extent
// nodes, the concatenation of the burned sectors starting at addr.Off
// covering addr.Len bytes).
func (d *WORMDisk) ReadAt(addr Addr) ([]byte, error) {
	if addr.Kind != KindWORM {
		return nil, fmt.Errorf("%w: non-WORM address %s", ErrBadPage, addr)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, 0, addr.Len)
	s := addr.Off
	for uint32(len(out)) < addr.Len {
		if s >= uint64(len(d.sectors)) || d.sectors[s] == nil {
			return nil, fmt.Errorf("%w: sector %d", ErrUnwritten, s)
		}
		out = append(out, d.sectors[s]...)
		d.stats.SectorReads++
		s++
	}
	// One seek for the sequential run.
	d.touch(addr.Off)
	d.stats.SimTime += time.Duration(s-addr.Off-1) * d.cost.OpticalXfer
	if uint32(len(out)) < addr.Len {
		return nil, fmt.Errorf("%w: short run at %s", ErrUnwritten, addr)
	}
	return out[:addr.Len], nil
}

// Stats returns a snapshot of the accounting counters.
func (d *WORMDisk) Stats() WORMStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
