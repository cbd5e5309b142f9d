package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/record"
	"repro/internal/workload"
)

// Everything a workload feeds the engine is generated here, from the
// seed alone: which op, which key, which past time. The engine sees only
// the generated inputs.

type opKind uint8

const (
	opGet     opKind = iota // current version of a key
	opAsOf                  // version of a key at a past time
	opUpdate                // single-key update transaction on an owned key
	opInsert                // single-key transaction creating a new key
	opHistory               // every version of a key
	opScan                  // as-of snapshot cursor, random start, Limit scanLimit
	opDiff                  // QueryAt(Diff(low, inf, t, t+2% of clock).WithLimit(scanLimit))
	numKinds
)

var kindNames = [numKinds]string{"get", "asof", "update", "insert", "history", "scan", "diff"}

// mix is an op mix in whole percent; the shares sum to 100.
type mix [numKinds]uint8

var (
	mixOLTP     = mix{opGet: 50, opAsOf: 10, opUpdate: 35, opInsert: 5}
	mixTemporal = mix{opAsOf: 60, opHistory: 15, opScan: 20, opDiff: 5}
	mixDurable  = mix{opGet: 50, opUpdate: 50}
	mixServed   = mix{opGet: 60, opUpdate: 40}
)

func (m mix) pick(r *rand.Rand) opKind {
	p := uint8(r.UintN(100))
	for k, share := range m {
		if p < share {
			return opKind(k)
		}
		p -= share
	}
	panic("mix shares do not sum to 100")
}

// op is one generated operation. frac selects a past time as a fraction
// of the commit clock at execution, so the stream itself is a pure
// function of the seed.
type op struct {
	kind opKind
	key  int // key index; workload.SpreadKey(key) is the key
	frac uint32
}

// hot80 is the skew: 80 % of picks fall uniformly on the first 20 % of
// key indexes, the rest uniformly on the other 80 %. (rand.Zipf with
// s=1.1 was ruled out: one key ends up owning thousands of versions and
// History measures that key alone.)
func hot80(r *rand.Rand, n int) int {
	hot := max(n/5, 1)
	if hot >= n || r.UintN(100) < 80 {
		return r.IntN(hot)
	}
	return hot + r.IntN(n-hot)
}

// owned moves idx to the nearest lower index that client owns. Writers
// own disjoint key sets (index = client mod clients), so a lock conflict
// between clients is impossible and any ErrLockConflict is a failure.
func owned(idx, client, clients, n int) int {
	idx = idx - idx%clients + client
	if idx >= n {
		idx -= clients
	}
	return idx
}

// opStream generates one client's operations.
type opStream struct {
	r       *rand.Rand
	m       mix
	client  int
	clients int
	n       int // initial key count; inserts create indexes >= n
	inserts int
}

func newOpStream(seed uint64, m mix, client, clients, n int) *opStream {
	return &opStream{r: rand.New(rand.NewPCG(seed, uint64(client)+1)), m: m, client: client, clients: clients, n: n}
}

func (s *opStream) next() op {
	o := op{kind: s.m.pick(s.r), frac: s.r.Uint32()}
	switch o.kind {
	case opUpdate:
		o.key = owned(hot80(s.r, s.n), s.client, s.clients, s.n)
	case opInsert:
		o.key = s.n + s.client + s.clients*s.inserts
		s.inserts++
	case opScan, opDiff:
		o.key = s.r.IntN(s.n)
	default:
		o.key = hot80(s.r, s.n)
	}
	return o
}

// streamHash folds the first count ops of every client's stream into one
// number: same seed, same hash.
func streamHash(seed uint64, m mix, clients, n, count int) uint64 {
	h := fnv.New64a()
	var b [13]byte
	for c := 0; c < clients; c++ {
		s := newOpStream(seed, m, c, clients, n)
		for i := 0; i < count; i++ {
			o := s.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(b[1:], uint64(o.key))
			binary.LittleEndian.PutUint32(b[9:], o.frac)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// pastTime maps frac onto [1, now].
func pastTime(frac uint32, now record.Timestamp) record.Timestamp {
	if now == 0 {
		return 1
	}
	return 1 + record.Timestamp(uint64(frac)*uint64(now)>>32)
}

func keyOf(idx int) record.Key { return workload.SpreadKey(uint64(idx)) }

// fillValue writes version seq of key idx into dst (valueLen bytes): the
// index, the sequence number, and filler derived from both, so a reader
// can tell from the bytes alone which version it was handed.
func fillValue(dst []byte, idx int, seq uint32) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(idx))
	binary.LittleEndian.PutUint32(dst[8:], seq)
	x := uint64(idx)*0x9e3779b97f4a7c15 ^ uint64(seq)*0xbf58476d1ce4e5b9 | 1
	for i := 12; i < len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:], w[:])
	}
}

// parseValue returns the sequence number a value claims, and whether the
// value is byte for byte what fillValue wrote for (idx, seq).
func parseValue(v []byte, idx int) (uint32, bool) {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v) != uint64(idx) {
		return 0, false
	}
	seq := binary.LittleEndian.Uint32(v[8:])
	var want [valueLen]byte
	fillValue(want[:], idx, seq)
	return seq, string(want[:]) == string(v)
}
