package workload

import (
	"testing"

	"repro/internal/record"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Ops: 500, UpdateFraction: 0.5, Seed: 42}
	a := New(cfg).All()
	b := New(cfg).All()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Key.Equal(b[i].Key) || a[i].Delete != b[i].Delete ||
			string(a[i].Value) != string(b[i].Value) {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestUpdateFractionExtremes(t *testing.T) {
	// Pure insertion: every op introduces a new key.
	g := New(Config{Ops: 200, UpdateFraction: 0, Seed: 1})
	for _, op := range g.All() {
		if op.Update || op.Delete {
			t.Fatalf("pure-insert stream produced %+v", op)
		}
	}
	if g.KeysCreated() != 200+16 {
		t.Errorf("KeysCreated = %d", g.KeysCreated())
	}
	// Pure update: no new keys beyond the initial ones.
	g = New(Config{Ops: 200, UpdateFraction: 1, Seed: 1, InitialKeys: 8})
	for _, op := range g.All() {
		if !op.Update {
			t.Fatalf("pure-update stream produced insert %+v", op)
		}
	}
	if g.KeysCreated() != 8 {
		t.Errorf("KeysCreated = %d", g.KeysCreated())
	}
}

func TestUpdateFractionApproximate(t *testing.T) {
	g := New(Config{Ops: 4000, UpdateFraction: 0.3, Seed: 7})
	updates := 0
	for _, op := range g.All() {
		if op.Update {
			updates++
		}
	}
	frac := float64(updates) / 4000
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("update fraction = %.3f, want ~0.3", frac)
	}
}

func TestDeleteFraction(t *testing.T) {
	g := New(Config{Ops: 2000, UpdateFraction: 0.8, DeleteFraction: 0.2, Seed: 3})
	deletes, updates := 0, 0
	for _, op := range g.All() {
		if op.Delete {
			deletes++
			if op.Value != nil {
				t.Fatal("delete op with value")
			}
		}
		if op.Update {
			updates++
		}
	}
	if deletes == 0 || deletes > updates {
		t.Errorf("deletes=%d updates=%d", deletes, updates)
	}
}

func TestDistributions(t *testing.T) {
	for _, d := range []Distribution{Uniform, Zipf, Sequential} {
		g := New(Config{Ops: 1000, UpdateFraction: 1, Dist: d, Seed: 5, InitialKeys: 32})
		counts := make(map[string]int)
		for _, op := range g.All() {
			counts[string(op.Key)]++
		}
		if len(counts) == 0 {
			t.Fatalf("%v: no updates", d)
		}
		if d.String() == "" {
			t.Error("empty distribution name")
		}
	}
	// Zipf must be visibly skewed: the hottest key gets far more than
	// the uniform share.
	g := New(Config{Ops: 5000, UpdateFraction: 1, Dist: Zipf, Seed: 5, InitialKeys: 64})
	counts := make(map[string]int)
	for _, op := range g.All() {
		counts[string(op.Key)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*(5000/64) {
		t.Errorf("zipf max count %d not skewed (uniform share %d)", max, 5000/64)
	}
	// Sequential cycles deterministically.
	g = New(Config{Ops: 64, UpdateFraction: 1, Dist: Sequential, Seed: 5, InitialKeys: 32})
	ops := g.All()
	if !ops[0].Key.Equal(KeyName(0)) || !ops[32].Key.Equal(KeyName(0)) {
		t.Error("sequential distribution should cycle from key 0")
	}
}

func TestValueSize(t *testing.T) {
	g := New(Config{Ops: 10, UpdateFraction: 0, ValueSize: 100, Seed: 1})
	for _, op := range g.All() {
		if len(op.Value) != 100 {
			t.Fatalf("value size %d, want 100", len(op.Value))
		}
	}
	// Initial ops carry values too.
	for _, op := range New(Config{Ops: 0, ValueSize: 10, Seed: 1}).InitialOps() {
		if len(op.Value) != 10 || op.Update || op.Delete {
			t.Fatalf("bad initial op %+v", op)
		}
	}
}

func TestKeyNamesUniqueAndSpread(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		k := string(KeyName(i))
		if seen[k] {
			t.Fatalf("duplicate key at %d", i)
		}
		seen[k] = true
	}
}

// TestSpreadKeysCoverShards checks the property the sharded engine's
// scaling depends on: SpreadKey indexes land near-uniformly across the
// key-range shards of record.ShardOfKey.
func TestSpreadKeysCoverShards(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for i := uint64(0); i < 8000; i++ {
		counts[record.ShardOfKey(SpreadKey(i), n)]++
	}
	for s, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("shard %d holds %d of 8000 keys: spread is skewed (%v)", s, c, counts)
		}
	}
}
