package record

// The one CRC frame codec. Every byte stream the engine must be able to
// cut at a torn or corrupt point is a run of
//
//	| payload length (uint32 LE) | CRC32-C of payload (uint32 LE) | payload |
//
// frames: the WAL segments and the checkpoint file (internal/wal), the
// page file's flush journal (internal/pagestore), and the tsbserve wire
// protocol (internal/server/wire). All of them encode with AppendFrame;
// the files are read back with WalkFrames, which is a DecodeFrame loop,
// and the wire with ReadFrame — so torn-tail detection and corruption
// handling are one code path with one fuzz target. The three failure
// modes are typed: a frame whose header claims more than the caller's
// limit is ErrFrameTooLarge (corruption or abuse — the decoder refuses
// before allocating or reading the claimed length), a frame that ends
// early is ErrFrameTruncated, and a payload whose checksum disagrees
// with the header is ErrFrameCRC.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameHeaderSize is the fixed byte cost of one frame: length + CRC.
const FrameHeaderSize = 8

// MaxFramePayload is the absolute payload bound: a length header above
// it is corruption, not data, whatever limit the caller passes.
const MaxFramePayload = 1 << 30

var frameCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Typed frame decoding failures. ErrFrameTruncated means "the buffer or
// stream ended inside a frame": more bytes may simply not have arrived
// yet, so stream readers treat it as retryable-after-more-input, while
// WAL replay treats it as the torn tail.
var (
	ErrFrameTooLarge  = errors.New("record: frame payload exceeds limit")
	ErrFrameTruncated = errors.New("record: truncated frame")
	ErrFrameCRC       = errors.New("record: frame CRC mismatch")
)

// AppendFrame appends one frame carrying payload to dst and returns the
// extended buffer.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, frameCRCTable))
	return append(append(dst, hdr[:]...), payload...)
}

// frameLimit resolves a caller limit: 0 means the absolute bound.
func frameLimit(maxPayload int) uint32 {
	if maxPayload <= 0 || maxPayload > MaxFramePayload {
		return MaxFramePayload
	}
	return uint32(maxPayload)
}

// DecodeFrame decodes the first frame in buf, returning its payload and
// the remainder of buf after the frame. The payload aliases buf; clone
// it to retain it past the buffer's reuse. maxPayload bounds the
// payload length this decoder will accept (0 = MaxFramePayload); a
// header claiming more fails with ErrFrameTooLarge before anything past
// the header is touched, a buffer ending inside the frame fails with
// ErrFrameTruncated, and a checksum mismatch fails with ErrFrameCRC.
func DecodeFrame(buf []byte, maxPayload int) (payload, rest []byte, err error) {
	if len(buf) < FrameHeaderSize {
		return nil, buf, ErrFrameTruncated
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > frameLimit(maxPayload) {
		return nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(len(buf)-FrameHeaderSize) < n {
		return nil, buf, ErrFrameTruncated
	}
	payload = buf[FrameHeaderSize : FrameHeaderSize+int(n)]
	if crc32.Checksum(payload, frameCRCTable) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, buf, ErrFrameCRC
	}
	return payload, buf[FrameHeaderSize+int(n):], nil
}

// WalkFrames is recovery's repair rule for a framed file: it calls fn on
// the payload of each intact frame of buf, in order, and stops at the
// first frame DecodeFrame rejects — everything before that point was
// durably written, nothing from it on was ever acknowledged. clean
// reports that the walk consumed all of buf; an error from fn aborts the
// walk and is returned with clean=false. Payloads alias buf.
//
// A zero-length frame ends the walk as well. A zero-filled tail (a file
// extended but never written) parses as a run of empty frames, because
// CRC32-C of nothing is 0, and no framed file ever carries an empty
// payload, so such a tail is torn.
func WalkFrames(buf []byte, fn func(payload []byte) error) (clean bool, err error) {
	for len(buf) > 0 {
		payload, rest, derr := DecodeFrame(buf, 0)
		if derr != nil || len(payload) == 0 {
			return false, nil
		}
		if err := fn(payload); err != nil {
			return false, err
		}
		buf = rest
	}
	return true, nil
}

// ReadFrame reads exactly one frame from r and returns its payload. It
// never reads past the frame, and never reads the payload of a frame
// whose header exceeds maxPayload (0 = MaxFramePayload) — the over-read
// and over-allocation guard for network peers. io.EOF is returned only
// at a clean frame boundary; an EOF inside a frame is ErrFrameTruncated.
func ReadFrame(r io.Reader, maxPayload int) ([]byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > frameLimit(maxPayload) {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	if crc32.Checksum(payload, frameCRCTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrFrameCRC
	}
	return payload, nil
}
