package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

const (
	genMaxKey   = 64  // MaxKeySize of the generated nodes
	genMaxValue = 512 // MaxValueSize of the generated nodes
)

// genKey returns an empty, short or MaxKeySize key.
func genKey(rng *rand.Rand) record.Key {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, genMaxKey)
	default:
		k := make(record.Key, 1+rng.Intn(12))
		rng.Read(k)
		return k
	}
}

// genTime returns a small time, a time at or past 2^35, or a sentinel.
func genTime(rng *rand.Rand) record.Timestamp {
	switch rng.Intn(5) {
	case 0:
		return record.Timestamp(1 + rng.Intn(100))
	case 1:
		return record.Timestamp(1<<35 + rng.Int63n(1<<40))
	case 2:
		return record.Timestamp(rng.Uint64() >> 1)
	case 3:
		return record.TimeInfinity
	default:
		return record.TimePending
	}
}

func genRect(rng *rand.Rand) record.Rect {
	r := record.Rect{LowKey: genKey(rng), HighKey: record.InfiniteBound(), Start: genTime(rng), End: genTime(rng)}
	if rng.Intn(2) == 0 {
		r.HighKey = record.KeyBound(genKey(rng))
	}
	return r
}

// genVersion covers tombstones, pending versions with large transaction
// ids, and empty, short and MaxValueSize values.
func genVersion(rng *rand.Rand) record.Version {
	v := record.Version{Key: genKey(rng), Time: genTime(rng)}
	if v.Time == record.TimePending {
		v.TxnID = rng.Uint64() | 1<<63
	}
	switch rng.Intn(4) {
	case 0:
		v.Tombstone = true
	case 1:
		v.Value = []byte{}
	case 2:
		v.Value = bytes.Repeat([]byte{'v'}, genMaxValue)
	default:
		v.Value = []byte(fmt.Sprintf("value-%d", rng.Intn(1000)))
	}
	return v
}

func genNode(rng *rand.Rand, leaf bool) *node {
	n := &node{leaf: leaf, rect: genRect(rng)}
	count := rng.Intn(12)
	for i := 0; i < count; i++ {
		if leaf {
			n.versions = append(n.versions, genVersion(rng))
			continue
		}
		child := storage.Addr{Kind: storage.KindMagnetic, Off: uint64(rng.Intn(1 << 20))}
		if rng.Intn(2) == 0 {
			child = storage.Addr{Kind: storage.KindWORM, Off: rng.Uint64() >> 20, Len: rng.Uint32()}
		}
		n.entries = append(n.entries, entry{rect: genRect(rng), child: child})
	}
	return n
}

// genNodes returns the property test's nodes: leaves and index nodes
// alternately, from a fixed seed.
func genNodes(count int) []*node {
	rng := rand.New(rand.NewSource(1989))
	out := make([]*node, count)
	for i := range out {
		out[i] = genNode(rng, i%2 == 0)
	}
	return out
}

// sameNode compares two nodes field by field, bytes by value.
func sameNode(a, b *node) bool {
	if a.leaf != b.leaf || !a.rect.Equal(b.rect) || len(a.versions) != len(b.versions) || len(a.entries) != len(b.entries) {
		return false
	}
	for i, v := range a.versions {
		w := b.versions[i]
		if !v.Key.Equal(w.Key) || v.Time != w.Time || v.TxnID != w.TxnID || v.Tombstone != w.Tombstone || !bytes.Equal(v.Value, w.Value) {
			return false
		}
	}
	for i, e := range a.entries {
		if !e.rect.Equal(b.entries[i].rect) || e.child != b.entries[i].child {
			return false
		}
	}
	return true
}

// TestNodeSizeMatchesEncoding pins the arithmetic sizing to the encoder:
// Tree.size, Version.EncodedSize and Rect.EncodedSize must give exactly
// the lengths the encoder writes, and a view-decoded node must equal the
// node encoded.
func TestNodeSizeMatchesEncoding(t *testing.T) {
	var tr Tree
	for i, n := range genNodes(2000) {
		data := encodeNode(n)
		if got := tr.size(n); got != len(data) {
			t.Fatalf("node %d: size %d, encoded %d bytes", i, got, len(data))
		}
		rects := []record.Rect{n.rect}
		for _, e := range n.entries {
			rects = append(rects, e.rect)
		}
		for _, r := range rects {
			e := record.NewEncoder(nil)
			e.Rect(r)
			if r.EncodedSize() != e.Len() {
				t.Fatalf("rect %s: EncodedSize %d, encoded %d bytes", r, r.EncodedSize(), e.Len())
			}
		}
		for _, v := range n.versions {
			e := record.NewEncoder(nil)
			e.Version(v)
			if v.EncodedSize() != e.Len() {
				t.Fatalf("version %+v: EncodedSize %d, encoded %d bytes", v, v.EncodedSize(), e.Len())
			}
		}
		back, err := decodeNode(data, storage.NilAddr)
		if err != nil || !sameNode(n, back) {
			t.Fatalf("node %d: round trip failed (%v)", i, err)
		}
	}
}

// FuzzDecodeNode feeds arbitrary bytes to the node decoder: it must
// return a node or an error, never panic, size what it decoded exactly,
// and preallocate no more items than the remaining bytes can hold.
// (Explore with `go test -run='^$' -fuzz=FuzzDecodeNode ./internal/core`;
// the seed corpus runs as a normal test.)
func FuzzDecodeNode(f *testing.F) {
	for _, n := range genNodes(40) {
		f.Add(encodeNode(n))
	}
	f.Add([]byte{})
	f.Add([]byte{nodeKindLeaf, 0, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{nodeKindIndex, 0, 1, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeNode(data, storage.NilAddr)
		if err != nil {
			return
		}
		// A version encodes in at least 5 bytes.
		if cap(n.versions) > len(data)/5 || cap(n.entries) > len(data)/minEntrySize {
			t.Fatalf("%d bytes preallocated %d versions, %d entries", len(data), cap(n.versions), cap(n.entries))
		}
		var tr Tree
		enc := encodeNode(n)
		if tr.size(n) != len(enc) {
			t.Fatalf("size %d, encoded %d bytes", tr.size(n), len(enc))
		}
		back, err := decodeNode(enc, storage.NilAddr)
		if err != nil || !sameNode(n, back) {
			t.Fatalf("re-decode failed (%v)", err)
		}
	})
}
