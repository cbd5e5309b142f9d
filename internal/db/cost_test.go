package db

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

var updateCosts = flag.Bool("update", false, "rewrite testdata/costs.golden from the current code")

// The cost ledger pins the paper's cost unit, node accesses (§3.2), per
// operation class: how many nodes an operation decodes and encodes
// (sizing included), and how many heap allocations it makes. A
// single-goroutine in-memory database is built from a fixed seed, so
// every count is exact and a change that moves one shows up as a row
// diff. A change that makes an operation cheaper says so by changing its
// row; rewrite the file with
//
//	go test -run TestCostLedger -update ./internal/db
//
// The allocs rows are compared only without -race: the race detector's
// instrumentation allocates on its own. Every other row is compared in
// both builds. The shape row is the tree the ops ran against; it moves
// only when the split decisions do.

const (
	costKeys  = 600 // keys loaded before measuring
	costOps   = 100 // operations per class, and AllocsPerRun's run count
	costSpan  = 50  // keys in a diff or window read
	costTicks = 20  // ticks in a diff or window read
)

func costLedger(t *testing.T) []string {
	t.Helper()
	d, err := Open(Config{Shards: 1, LeafCapacity: 512, IndexCapacity: 2048, MaxKeySize: 16, MaxValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(37))
	keys := make([]record.Key, costKeys+2*costOps+1)
	for i := range keys {
		keys[i] = record.Key(fmt.Sprintf("k%06d", i))
	}
	value := []byte("v-0123456789")
	put := func(k record.Key) {
		if err := d.Update(func(tx *txn.Txn) error { return tx.Put(k, value) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:costKeys] {
		put(k)
	}
	for i := 0; i < 3*costKeys; i++ {
		put(keys[rng.Intn(costKeys)])
	}
	st := d.Stats().Tree
	rows := []string{fmt.Sprintf("shape height=%d leaf_time_splits=%d leaf_key_splits=%d index_splits=%d redundant_versions=%d current_nodes=%d historical_nodes=%d",
		st.Height, st.LeafTimeSplits, st.LeafKeySplits, st.IndexTimeSplits+st.IndexKeySplits,
		st.RedundantVersions, st.CurrentNodes, st.HistoricalNodes)}

	now := d.Now()
	next := costKeys
	// rect picks the key×time rectangle of a diff or window read:
	// costSpan keys from a random start, costTicks ticks from a random
	// past time.
	rect := func() (record.Key, record.Bound, record.Timestamp) {
		i := rng.Intn(costKeys - costSpan)
		return keys[i], record.KeyBound(keys[i+costSpan]), record.Timestamp(1 + rng.Int63n(int64(now)-costTicks))
	}
	classes := []struct {
		name string
		op   func()
	}{
		{"get", func() {
			if _, ok, err := d.Get(keys[rng.Intn(costKeys)]); err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
		}},
		{"get_as_of", func() {
			if _, _, err := d.GetAsOf(keys[rng.Intn(costKeys)], record.Timestamp(1+rng.Int63n(int64(now)))); err != nil {
				t.Fatal(err)
			}
		}},
		{"update_txn", func() { put(keys[rng.Intn(costKeys)]) }},
		{"insert_txn", func() { put(keys[next]); next++ }},
		{"scan_as_of_200", func() {
			at := record.Timestamp(1 + rng.Int63n(int64(now)))
			cur := d.ReadAt(at).Cursor(keys[rng.Intn(costKeys)], record.InfiniteBound(), ScanOptions{Limit: 200})
			if _, err := cur.Collect(); err != nil {
				t.Fatal(err)
			}
		}},
		{"history", func() {
			if _, err := d.History(keys[rng.Intn(costKeys)]); err != nil {
				t.Fatal(err)
			}
		}},
		{"diff", func() {
			low, high, from := rect()
			op, err := d.QueryAt(d.Now(), query.Diff(low, high, from, from+costTicks))
			if err != nil {
				t.Fatal(err)
			}
			for op.Next() {
			}
			if err := op.Err(); err != nil {
				t.Fatal(err)
			}
			op.Close()
		}},
		{"window", func() {
			low, high, from := rect()
			if _, err := window(d, low, high, from, from+costTicks); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range classes {
		dec0, enc0 := nodeAccesses(t, d)
		for i := 0; i < costOps; i++ {
			c.op()
		}
		dec1, enc1 := nodeAccesses(t, d)
		rows = append(rows, fmt.Sprintf("nodes %s decodes/op=%.2f encodes/op=%.2f",
			c.name, float64(dec1-dec0)/costOps, float64(enc1-enc0)/costOps))
		// The alloc runs move the tree on, so they run in both builds.
		allocs := testing.AllocsPerRun(costOps, c.op)
		if !raceEnabled {
			rows = append(rows, fmt.Sprintf("allocs %s allocs/op=%.0f", c.name, allocs))
		}
	}
	return rows
}

// nodeAccesses reads the node-access counters the way an operator
// does: from the registry's exposition, summed over the shards.
func nodeAccesses(t *testing.T, d *DB) (decodes, encodes uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		switch s.Name {
		case "tsb_core_node_decodes_total":
			decodes += uint64(s.Value)
		case "tsb_core_node_encodes_total":
			encodes += uint64(s.Value)
		}
	}
	return decodes, encodes
}

func TestCostLedger(t *testing.T) {
	got := costLedger(t)
	path := filepath.Join("testdata", "costs.golden")
	if *updateCosts {
		if raceEnabled {
			t.Fatal("-update needs a build without -race: the allocs rows would be missing")
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if raceEnabled && strings.HasPrefix(row, "allocs ") {
			continue
		}
		want = append(want, row)
	}
	var diff []string
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			diff = append(diff, fmt.Sprintf("-%s\n+%s", w, g))
		}
	}
	if len(diff) > 0 {
		t.Fatalf("cost ledger changed (rewrite with -update if intended):\n%s", strings.Join(diff, "\n"))
	}
}
