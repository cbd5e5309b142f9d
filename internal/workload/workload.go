// Package workload generates the deterministic operation streams used by
// the experiments. The paper's evaluation plan (§5) varies exactly two
// knobs — the splitting policy and "different rates of update versus
// insertion" — so the central parameter here is UpdateFraction: the
// probability that an operation updates an existing record instead of
// inserting a new one.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/record"
)

// Distribution selects which existing key an update targets.
type Distribution int

const (
	// Uniform picks uniformly among existing keys.
	Uniform Distribution = iota
	// Zipf skews updates toward early (hot) keys.
	Zipf
	// Sequential cycles round-robin over existing keys.
	Sequential
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Config parameterizes a generator.
type Config struct {
	// Ops is the total number of operations the generator will produce.
	Ops int
	// UpdateFraction in [0,1]: the probability that an operation
	// updates an existing key (0 = pure insertion, 1 = pure update).
	UpdateFraction float64
	// DeleteFraction in [0,1): the probability that an update is a
	// tombstone instead of a new value.
	DeleteFraction float64
	// Dist selects the update-target distribution.
	Dist Distribution
	// ValueSize is the record payload size in bytes (default 32).
	ValueSize int
	// Seed makes the stream deterministic.
	Seed int64
	// InitialKeys pre-seeds this many keys so update-only workloads
	// (UpdateFraction 1) have targets (default 16).
	InitialKeys int
}

// Op is one generated operation: a Put (or Delete) of Key.
type Op struct {
	Key    record.Key
	Value  []byte
	Delete bool
	// Update reports whether the key already existed.
	Update bool
}

// Generator produces a deterministic operation stream.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	zipf    *rand.Zipf
	created int
	emitted int
	seq     int
}

// New returns a generator for cfg.
func New(cfg Config) *Generator {
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 32
	}
	if cfg.InitialKeys == 0 {
		cfg.InitialKeys = 16
	}
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		created: cfg.InitialKeys,
	}
	g.zipf = rand.NewZipf(g.rng, 1.5, 1, uint64(1<<20))
	return g
}

// KeyName returns the canonical key for index i. Keys are emitted in a
// shuffled order (multiplicative hashing) so insertions spread across the
// key space instead of always appending on the right.
func KeyName(i int) record.Key {
	h := uint64(i) * 0x9e3779b97f4a7c15
	return record.Key(fmt.Sprintf("key%016x", h))
}

// SpreadKey returns the canonical key for index i, as an 8-byte binary
// key whose high-order bytes are uniformly distributed (multiplicative
// hashing), so consecutive indexes land on different key-range shards.
func SpreadKey(i uint64) record.Key {
	return record.Uint64Key(i * 0x9e3779b97f4a7c15)
}

// InitialOps returns the operations that pre-seed the initial keys; apply
// them before the main stream.
func (g *Generator) InitialOps() []Op {
	out := make([]Op, g.cfg.InitialKeys)
	for i := range out {
		out[i] = Op{Key: KeyName(i), Value: g.value(i)}
	}
	return out
}

func (g *Generator) value(tag int) []byte {
	v := make([]byte, g.cfg.ValueSize)
	copy(v, fmt.Sprintf("v%d-", tag))
	for i := len(fmt.Sprintf("v%d-", tag)); i < len(v); i++ {
		v[i] = byte('a' + (tag+i)%26)
	}
	return v
}

// Next returns the next operation, or ok=false when the stream is done.
func (g *Generator) Next() (Op, bool) {
	if g.emitted >= g.cfg.Ops {
		return Op{}, false
	}
	g.emitted++
	if g.rng.Float64() >= g.cfg.UpdateFraction || g.created == 0 {
		// Insertion of a brand-new key.
		op := Op{Key: KeyName(g.created), Value: g.value(g.created)}
		g.created++
		return op, true
	}
	// Update of an existing key.
	var idx int
	switch g.cfg.Dist {
	case Zipf:
		idx = int(g.zipf.Uint64()) % g.created
	case Sequential:
		idx = g.seq % g.created
		g.seq++
	default:
		idx = g.rng.Intn(g.created)
	}
	op := Op{Key: KeyName(idx), Update: true}
	if g.rng.Float64() < g.cfg.DeleteFraction {
		op.Delete = true
	} else {
		op.Value = g.value(g.emitted)
	}
	return op, true
}

// All drains the generator into a slice (initial ops not included).
func (g *Generator) All() []Op {
	var out []Op
	for {
		op, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, op)
	}
}

// KeysCreated returns how many distinct keys the stream has introduced,
// including the initial keys.
func (g *Generator) KeysCreated() int { return g.created }
