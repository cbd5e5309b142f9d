package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The codec is a small, allocation-conscious binary encoder/decoder used by
// every node format in the repository (TSB-tree nodes, WOBT sectors, B+-tree
// pages). Integers are unsigned varints, byte strings are length-prefixed.
// Decoders carry a sticky error so call sites can decode a whole structure
// and check once, in the style of bufio.Scanner.

// ErrCorrupt is returned when a page or sector does not decode cleanly.
var ErrCorrupt = errors.New("record: corrupt encoding")

// Encoder appends binary fields to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder that appends to buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Time appends a timestamp.
func (e *Encoder) Time(t Timestamp) { e.Uvarint(uint64(t)) }

// Key appends a length-prefixed key.
func (e *Encoder) Key(k Key) { e.Blob(k) }

// Bound appends a key bound.
func (e *Encoder) Bound(b Bound) {
	e.Bool(b.inf)
	if !b.inf {
		e.Blob(b.key)
	}
}

// Rect appends a rectangle.
func (e *Encoder) Rect(r Rect) {
	e.Key(r.LowKey)
	e.Bound(r.HighKey)
	e.Time(r.Start)
	e.Time(r.End)
}

// Version appends a version record.
func (e *Encoder) Version(v Version) {
	var flags byte
	if v.Tombstone {
		flags |= 1
	}
	e.Byte(flags)
	e.Key(v.Key)
	e.Time(v.Time)
	e.Uvarint(v.TxnID)
	e.Blob(v.Value)
}

// Versions appends a count-prefixed run of version records: the wire
// encoding of a commit's write set in the write-ahead log's frames.
func (e *Encoder) Versions(vs []Version) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Version(v)
	}
}

// UvarintSize returns the number of bytes Encoder.Uvarint writes for v.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// blobSize returns the number of bytes Encoder.Blob writes for b.
func blobSize(b []byte) int { return UvarintSize(uint64(len(b))) + len(b) }

// Decoder reads binary fields from a byte slice with a sticky error.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	view bool // Blob aliases buf instead of copying
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// NewViewDecoder returns a decoder over buf whose byte strings (keys,
// values, bounds) alias buf rather than copy it: each is a subslice
// capped at its own end, so appending to one never overwrites the next.
// The caller must own buf and keep it unmodified while any decoded
// value is in use.
func NewViewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf, view: true} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: at offset %d of %d", ErrCorrupt, d.off, len(d.buf))
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Blob reads a length-prefixed byte string. The returned slice is a copy,
// safe to retain after the page buffer is recycled — except from a
// NewViewDecoder, where it is a capped subslice of the decoded buffer.
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail()
		return nil
	}
	end := d.off + int(n)
	var out []byte
	if d.view {
		out = d.buf[d.off:end:end]
	} else {
		out = make([]byte, n)
		copy(out, d.buf[d.off:end])
	}
	d.off = end
	return out
}

// Time reads a timestamp.
func (d *Decoder) Time() Timestamp { return Timestamp(d.Uvarint()) }

// Key reads a key.
func (d *Decoder) Key() Key {
	b := d.Blob()
	if len(b) == 0 {
		return nil
	}
	return Key(b)
}

// Bound reads a key bound.
func (d *Decoder) Bound() Bound {
	if d.Bool() {
		return InfiniteBound()
	}
	b := d.Blob()
	if len(b) == 0 {
		return KeyBound(nil)
	}
	return KeyBound(Key(b))
}

// Rect reads a rectangle.
func (d *Decoder) Rect() Rect {
	var r Rect
	r.LowKey = d.Key()
	r.HighKey = d.Bound()
	r.Start = d.Time()
	r.End = d.Time()
	return r
}

// Version reads a version record.
func (d *Decoder) Version() Version {
	var v Version
	flags := d.Byte()
	v.Tombstone = flags&1 != 0
	v.Key = d.Key()
	v.Time = d.Time()
	v.TxnID = d.Uvarint()
	v.Value = d.Blob()
	return v
}

// Count reads an item count, failing if the remaining bytes cannot hold
// that many items of at least minSize bytes each: such a count is
// corrupt, not merely big, and must not size an allocation.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Remaining()/minSize) {
		d.fail()
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Versions reads a count-prefixed run of version records written by
// Encoder.Versions.
func (d *Decoder) Versions() []Version {
	// The smallest version (flags, empty key, time, txn id, empty
	// value) occupies 5 bytes. The pre-allocation is further capped so
	// a crafted count can never balloon memory ahead of the decode
	// failing.
	n := d.Count(5)
	if d.err != nil {
		return nil
	}
	out := make([]Version, 0, min(n, 1024))
	for range n {
		v := d.Version()
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}
