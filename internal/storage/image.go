package storage

// Device images: deep-copied snapshots of a simulated device's full
// state, plain data with exported fields. Tests compare them to assert
// that two databases reached byte-identical device contents.

// MagneticImage is the full state of a MagneticDisk.
type MagneticImage struct {
	PageSize int
	Pages    [][]byte // nil = unwritten or freed
	Live     []bool
	Free     []uint64
	Stats    MagneticStats
}

// Image captures the disk's current state.
func (d *MagneticDisk) Image() MagneticImage {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := MagneticImage{
		PageSize: d.pageSize,
		Pages:    make([][]byte, len(d.pages)),
		Live:     append([]bool(nil), d.live...),
		Free:     append([]uint64(nil), d.free...),
		Stats:    d.stats,
	}
	for i, p := range d.pages {
		if p != nil {
			img.Pages[i] = append([]byte(nil), p...)
		}
	}
	return img
}

// WORMImage is the full state of a WORMDisk.
type WORMImage struct {
	SectorSize     int
	Sectors        [][]byte // nil = unburned
	Reserved       uint64
	PlatterSectors uint64
	Drives         int
	Stats          WORMStats
}

// Image captures the device's current state. Mounted-platter state is
// transient and not captured.
func (d *WORMDisk) Image() WORMImage {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := WORMImage{
		SectorSize:     d.sectorSize,
		Sectors:        make([][]byte, len(d.sectors)),
		Reserved:       d.reserved,
		PlatterSectors: d.platterSectors,
		Drives:         d.drives,
		Stats:          d.stats,
	}
	for i, s := range d.sectors {
		if s != nil {
			img.Sectors[i] = append([]byte(nil), s...)
		}
	}
	return img
}
