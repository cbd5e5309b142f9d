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
// operation class: how many nodes an operation accesses (a decode or a
// hit in the tree's index level), how many of those it decodes, how many
// it encodes (sizing included), and how many heap allocations it makes. A
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

// costDB is a ledger database: the fixed config plus secs, loaded from
// the fixed seed with every key once and then 3×costKeys updates of
// random keys. put commits one single-key update with the next value
// from value.
type costDB struct {
	d    *DB
	rng  *rand.Rand
	keys []record.Key
	put  func(k record.Key)
}

func openCostDB(t *testing.T, secs map[string]SecondaryExtract, value func() []byte) costDB {
	t.Helper()
	d, err := Open(Config{Shards: 1, LeafCapacity: 512, IndexCapacity: 2048, MaxKeySize: 16, MaxValueSize: 32, Secondaries: secs})
	if err != nil {
		t.Fatal(err)
	}
	c := costDB{d: d, rng: rand.New(rand.NewSource(37)), keys: make([]record.Key, costKeys+2*costOps+1)}
	for i := range c.keys {
		c.keys[i] = record.Key(fmt.Sprintf("k%06d", i))
	}
	c.put = func(k record.Key) {
		if err := d.Update(func(tx *txn.Txn) error { return tx.Put(k, value()) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range c.keys[:costKeys] {
		c.put(k)
	}
	for i := 0; i < 3*costKeys; i++ {
		c.put(c.keys[c.rng.Intn(costKeys)])
	}
	return c
}

// costRows measures one op class: its node accesses per op on the
// primary trees and, on a database with secondary indexes, on the index
// trees, then (without -race) its allocations.
func costRows(t *testing.T, d *DB, name string, op func()) []string {
	t.Helper()
	prim0, idx0 := nodeAccesses(t, d)
	for i := 0; i < costOps; i++ {
		op()
	}
	prim1, idx1 := nodeAccesses(t, d)
	row := func(name string, a0, a1 [3]uint64) string {
		per := func(i int) float64 { return float64(a1[i]-a0[i]) / costOps }
		return fmt.Sprintf("nodes %s decodes/op=%.2f accesses/op=%.2f encodes/op=%.2f",
			name, per(0), per(0)+per(1), per(2))
	}
	rows := []string{row(name, prim0, prim1)}
	if len(d.indexes()) > 0 {
		rows = append(rows, row(name+" index", idx0, idx1))
	}
	// The alloc runs move the tree on, so they run in both builds.
	allocs := testing.AllocsPerRun(costOps, op)
	if !raceEnabled {
		rows = append(rows, fmt.Sprintf("allocs %s allocs/op=%.0f", name, allocs))
	}
	return rows
}

func costLedger(t *testing.T) []string {
	t.Helper()
	value := []byte("v-0123456789")
	c := openCostDB(t, nil, func() []byte { return value })
	defer c.d.Close()
	d, rng, keys, put := c.d, c.rng, c.keys, c.put
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
		rows = append(rows, costRows(t, d, c.name, c.op)...)
	}

	// The same update on a database with one secondary index, whose key
	// changes on every commit: the commit path's index maintenance.
	// Its primary accesses are counted apart from the index tree's.
	n := 0
	sc := openCostDB(t, map[string]SecondaryExtract{"tag": func(v []byte) record.Key { return record.Key(v[:2]) }},
		func() []byte { n++; return fmt.Appendf(nil, "t%d-0123456789", n%8) })
	defer sc.d.Close()
	rows = append(rows, costRows(t, sc.d, "update_txn_secondary", func() { sc.put(sc.keys[sc.rng.Intn(costKeys)]) })...)
	return rows
}

// nodeAccesses reads the node-access counters the way an operator
// does: from the registry's exposition, as {decodes, index-level hits,
// encodes} summed over the primary trees (the series labelled shard) and
// over the secondary index trees (labelled index).
func nodeAccesses(t *testing.T, d *DB) (primary, index [3]uint64) {
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
		sum := &primary
		if strings.Contains(s.Series, `index="`) {
			sum = &index
		}
		switch s.Name {
		case "tsb_core_node_decodes_total":
			sum[0] += uint64(s.Value)
		case "tsb_core_index_level_hits_total":
			sum[1] += uint64(s.Value)
		case "tsb_core_node_encodes_total":
			sum[2] += uint64(s.Value)
		}
	}
	return primary, index
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
