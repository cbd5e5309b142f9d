package pagestore

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
)

// inspectSlots walks the fixed-size slots of the device file at path —
// no locking, safe on a live or crashed directory — calling fn with each
// slot's bytes (short for a torn last slot) until the file ends.
func inspectSlots(path string, magic [8]byte, slotHeader int, fn func(i uint64, slot []byte, blockSize int) error) (blockSize int, slots uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	blockSize, err = readFileHeader(f, magic, path)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, slotHeader+blockSize)
	for i := uint64(0); ; i++ {
		n, rerr := f.ReadAt(buf, fileHeaderSize+int64(i)*int64(len(buf)))
		if rerr != nil && rerr != io.EOF {
			return 0, 0, rerr
		}
		if n == 0 {
			return blockSize, i, nil
		}
		if err := fn(i, buf[:n], blockSize); err != nil {
			return 0, 0, err
		}
	}
}

// PageInfo describes one page slot of a page file, as InspectPages saw
// it on disk.
type PageInfo struct {
	Page    uint64
	Written bool // a frame is present (the slot is not a hole)
	Len     int  // payload bytes (0 for holes)
	CRCOK   bool // frame validates (magic, length, stamp, CRC)
}

// InspectPages walks every page slot of the page file at path.
func InspectPages(path string, fn func(PageInfo) error) (pageSize int, pages uint64, err error) {
	return inspectSlots(path, pageMagic, pageFrameHeader, func(p uint64, slot []byte, pageSize int) error {
		info := PageInfo{Page: p}
		if len(slot) >= pageFrameHeader && binary.LittleEndian.Uint32(slot[0:4]) != 0 {
			info.Written = true
			info.Len = int(binary.LittleEndian.Uint32(slot[4:8]))
			_, derr := decodePageFrame(slot, p, pageSize)
			info.CRCOK = derr == nil
		}
		return fn(info)
	})
}

// SectorInfo describes one sector slot of a burn file.
type SectorInfo struct {
	Sector uint64
	Len    int // payload bytes claimed by the frame header
	CRCOK  bool
}

// InspectSectors walks every sector slot of the burn file at path.
func InspectSectors(path string, fn func(SectorInfo) error) (sectorSize int, sectors uint64, err error) {
	return inspectSlots(path, burnMagic, burnFrameHeader, func(s uint64, slot []byte, sectorSize int) error {
		info := SectorInfo{Sector: s}
		if len(slot) >= burnFrameHeader {
			info.Len = int(binary.LittleEndian.Uint32(slot[0:4]))
			_, info.CRCOK = decodeBurnFrame(slot, sectorSize)
			if !info.CRCOK && info.Len > sectorSize {
				info.Len = 0
			}
		}
		return fn(info)
	})
}

// Paths derives the standard device file names inside a durable
// directory: pages.dev, worm.dev (and pages.dev.journal while a
// checkpoint flush is in progress).
func Paths(dir string) (pagePath, burnPath string) {
	return filepath.Join(dir, "pages.dev"), filepath.Join(dir, "worm.dev")
}
