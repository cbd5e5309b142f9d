package record

import (
	"testing"
)

// FuzzDecodeVersion feeds arbitrary bytes to the version decoder: it must
// either fail cleanly or round-trip what it decoded, and never panic. The
// view decoder must decode exactly what the copying decoder does. (Run with `go test -fuzz=FuzzDecodeVersion ./internal/record` to explore;
// the seed corpus runs as a normal test.)
func FuzzDecodeVersion(f *testing.F) {
	// Seed with valid encodings and near-misses.
	e := NewEncoder(nil)
	e.Version(Version{Key: Key("key"), Time: 7, TxnID: 3, Value: []byte("value")})
	f.Add(e.Bytes())
	e = NewEncoder(nil)
	e.Version(Version{Key: Key("k"), Time: TimePending, TxnID: 1, Tombstone: true})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{1, 3, 'a', 'b', 'c'})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		v := d.Version()
		vd := NewViewDecoder(data)
		vv := vd.Version()
		if (d.Err() == nil) != (vd.Err() == nil) || !sameVersion(v, vv) {
			t.Fatalf("view decoder differs: %+v (%v) vs %+v (%v)", vv, vd.Err(), v, d.Err())
		}
		if d.Err() != nil {
			return // clean failure
		}
		// Whatever decoded must re-encode and decode to the same value.
		e := NewEncoder(nil)
		e.Version(v)
		d2 := NewDecoder(e.Bytes())
		v2 := d2.Version()
		if d2.Err() != nil {
			t.Fatalf("re-decode failed: %v", d2.Err())
		}
		if !sameVersion(v, v2) {
			t.Fatalf("round trip mismatch: %+v vs %+v", v, v2)
		}
	})
}

// sameVersion compares two versions field by field, bytes by value.
func sameVersion(a, b Version) bool {
	return a.Key.Equal(b.Key) && a.Time == b.Time && a.TxnID == b.TxnID &&
		a.Tombstone == b.Tombstone && string(a.Value) == string(b.Value)
}

// FuzzShardRouting drives the shard-boundary key codec with arbitrary keys
// and shard counts: routing must land every key inside its shard's
// half-open range, boundary keys must route to the shard they begin, and
// boundary keys must survive the page codec byte-identically (they are
// persisted as rectangle bounds in sharded metadata).
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte("key0000"), uint16(8))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0x61, 0x00}, uint16(256))
	f.Add([]byte{0xff, 0xff, 0x01}, uint16(65535))
	f.Add([]byte{0x00}, uint16(3))

	f.Fuzz(func(t *testing.T, key []byte, nRaw uint16) {
		n := int(nRaw)
		if n == 0 {
			n = 1
		}
		k := Key(key)
		i := ShardOfKey(k, n)
		if i < 0 || i >= n {
			t.Fatalf("shard %d of %d out of range", i, n)
		}
		low, high := ShardRange(i, n)
		if k.Less(low) || high.CompareKey(k) <= 0 {
			t.Fatalf("key %x routed to shard %d/%d but outside [%s,%s)", key, i, n, low, high)
		}
		// The boundary key itself belongs to the shard it opens.
		if got := ShardOfKey(low, n); got != i && len(low) > 0 {
			t.Fatalf("boundary %x of shard %d/%d routes to %d", low, i, n, got)
		}
		// Codec round trip of the boundary.
		e := NewEncoder(nil)
		e.Key(low)
		d := NewDecoder(e.Bytes())
		got := d.Key()
		if d.Err() != nil || !got.Equal(low) {
			t.Fatalf("boundary codec round trip %x -> %x (%v)", low, got, d.Err())
		}
	})
}

// FuzzDecodeRect is the rectangle decoder analogue.
func FuzzDecodeRect(f *testing.F) {
	e := NewEncoder(nil)
	e.Rect(Rect{LowKey: Key("a"), HighKey: KeyBound(Key("m")), Start: 3, End: 9})
	f.Add(e.Bytes())
	e = NewEncoder(nil)
	e.Rect(WholeSpace())
	f.Add(e.Bytes())
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		r := d.Rect()
		if d.Err() != nil {
			return
		}
		e := NewEncoder(nil)
		e.Rect(r)
		d2 := NewDecoder(e.Bytes())
		r2 := d2.Rect()
		if d2.Err() != nil || !r2.Equal(r) {
			t.Fatalf("round trip mismatch: %s vs %s (%v)", r, r2, d2.Err())
		}
	})
}
