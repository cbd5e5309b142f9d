package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// refdb is the reference implementation: full version histories per key.
type refdb map[string][]record.Version

func (m refdb) insert(v record.Version) {
	m[string(v.Key)] = append(m[string(v.Key)], v)
}

func (m refdb) getAsOf(k record.Key, at record.Timestamp) (record.Version, bool) {
	var out record.Version
	ok := false
	for _, v := range m[string(k)] {
		if v.Time <= at {
			if !ok || v.Time > out.Time {
				out = v
				ok = true
			}
		}
	}
	if ok && out.Tombstone {
		return record.Version{}, false
	}
	return out, ok
}

func (m refdb) history(k record.Key) []record.Version {
	return m[string(k)]
}

func (m refdb) snapshot(at record.Timestamp) map[string]record.Version {
	out := make(map[string]record.Version)
	for k := range m {
		if v, ok := m.getAsOf(record.Key(k), at); ok {
			out[k] = v
		}
	}
	return out
}

func policies() map[string]Policy {
	return map[string]Policy{
		"wobt-like":   PolicyWOBTLike,
		"last-update": PolicyLastUpdate,
		"key-pref":    PolicyKeyPref,
		"time-pref":   PolicyTimePref,
		"median":      {KeySplitFraction: 0.5, SplitTime: SplitAtMedian, IndexKeySplitFraction: 0.5},
	}
}

func TestModelEquivalence(t *testing.T) {
	for name, p := range policies() {
		p := p
		for _, seed := range []int64{1, 2, 5} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				runModelWorkload(t, p, seed, 900, 50)
			})
		}
	}
}

func runModelWorkload(t *testing.T, p Policy, seed int64, ops, nKeys int) {
	rng := rand.New(rand.NewSource(seed))
	tree, _, _ := newTestTree(t, p)
	ref := make(refdb)
	ts := uint64(0)

	// A fraction of writes go through the pending path: written pending,
	// then committed or aborted a few operations later.
	type pendingWrite struct {
		v     record.Version
		abort bool
	}
	var pending []pendingWrite
	nextTxn := uint64(100)

	flushPending := func(force bool) {
		for len(pending) > 0 && (force || len(pending) > 3) {
			pw := pending[0]
			pending = pending[1:]
			if pw.abort {
				if err := tree.AbortKey(pw.v.Key, pw.v.TxnID); err != nil {
					t.Fatalf("abort: %v", err)
				}
				continue
			}
			ts++
			if err := tree.CommitKey(pw.v.Key, pw.v.TxnID, record.Timestamp(ts)); err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed := pw.v
			committed.Time = record.Timestamp(ts)
			ref.insert(committed)
		}
	}

	pendingKeys := func() map[string]bool {
		out := make(map[string]bool)
		for _, pw := range pending {
			out[string(pw.v.Key)] = true
		}
		return out
	}

	for op := 0; op < ops; op++ {
		k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(nKeys)))
		switch {
		case rng.Intn(10) == 0: // pending write
			if pendingKeys()[string(k)] {
				break // one pending writer per key (lock discipline)
			}
			nextTxn++
			v := record.Version{
				Key: k, Time: record.TimePending, TxnID: nextTxn,
				Value: []byte(fmt.Sprintf("pend-%d", nextTxn)),
			}
			if err := tree.Insert(v); err != nil {
				t.Fatalf("pending insert: %v", err)
			}
			pending = append(pending, pendingWrite{v: v, abort: rng.Intn(3) == 0})
		case rng.Intn(12) == 0: // delete
			if pendingKeys()[string(k)] {
				break
			}
			ts++
			v := record.Version{Key: k, Time: record.Timestamp(ts), Tombstone: true}
			if err := tree.Insert(v); err != nil {
				t.Fatalf("delete: %v", err)
			}
			ref.insert(v)
		default: // committed write
			if pendingKeys()[string(k)] {
				break
			}
			ts++
			v := record.Version{Key: k, Time: record.Timestamp(ts), Value: []byte(fmt.Sprintf("v%d", ts))}
			if err := tree.Insert(v); err != nil {
				t.Fatalf("insert: %v", err)
			}
			ref.insert(v)
		}
		flushPending(false)
		if op%150 == 149 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("invariants after op %d: %v", op, err)
			}
		}
	}
	flushPending(true)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}

	// Current reads.
	for i := 0; i < nKeys; i++ {
		k := record.StringKey(fmt.Sprintf("key%03d", i))
		gv, gok, err := tree.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		mv, mok := ref.getAsOf(k, record.TimeInfinity)
		if gok != mok || (gok && (gv.Time != mv.Time || string(gv.Value) != string(mv.Value))) {
			t.Fatalf("Get(%s): tree=%v,%v ref=%v,%v", k, gv, gok, mv, mok)
		}
	}
	// As-of reads at random times.
	for trial := 0; trial < 300; trial++ {
		k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(nKeys)))
		at := record.Timestamp(rng.Intn(int(ts) + 2))
		gv, gok, err := tree.GetAsOf(k, at)
		if err != nil {
			t.Fatal(err)
		}
		mv, mok := ref.getAsOf(k, at)
		if gok != mok || (gok && (gv.Time != mv.Time || string(gv.Value) != string(mv.Value))) {
			t.Fatalf("GetAsOf(%s,%d): tree=%v,%v ref=%v,%v", k, at, gv, gok, mv, mok)
		}
	}
	// Snapshots.
	for _, at := range []record.Timestamp{1, record.Timestamp(ts / 3), record.Timestamp(ts / 2), record.Timestamp(ts), record.TimePending} {
		got, err := tree.ScanAsOf(at, nil, record.InfiniteBound())
		if err != nil {
			t.Fatal(err)
		}
		want := ref.snapshot(at)
		if len(got) != len(want) {
			t.Fatalf("snapshot@%d size: tree=%d ref=%d", at, len(got), len(want))
		}
		for i, v := range got {
			if i > 0 && !got[i-1].Key.Less(v.Key) {
				t.Fatalf("snapshot@%d not sorted at %d", at, i)
			}
			w, ok := want[string(v.Key)]
			if !ok || w.Time != v.Time || string(w.Value) != string(v.Value) {
				t.Fatalf("snapshot@%d key %s: tree=%v ref=%v", at, v.Key, v, w)
			}
		}
	}
	// Histories.
	for i := 0; i < nKeys; i++ {
		k := record.StringKey(fmt.Sprintf("key%03d", i))
		h, err := tree.History(k)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.history(k)
		if len(h) != len(want) {
			t.Fatalf("History(%s): tree=%d versions ref=%d", k, len(h), len(want))
		}
		for j := range h {
			if h[j].Time != want[j].Time || h[j].Tombstone != want[j].Tombstone {
				t.Fatalf("History(%s)[%d]: tree=%v ref=%v", k, j, h[j], want[j])
			}
		}
	}
	// Windows at the edges of time, through the window walk and the edge
	// descent.
	for _, w := range edgeWindows(rng, ts) {
		checkWindow(t, tree, ref, nil, nil, record.InfiniteBound(), w[0], w[1])
	}
}

func TestModelEquivalenceLargerNodes(t *testing.T) {
	// Same machinery with page-sized nodes: fewer splits, more content
	// per node.
	rng := rand.New(rand.NewSource(11))
	mag := storage.NewMagneticDisk(1024, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 256})
	tree, err := New(mag, worm, Config{Policy: PolicyLastUpdate, MaxKeySize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(refdb)
	for ts := uint64(1); ts <= 2000; ts++ {
		k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(120)))
		v := record.Version{Key: k, Time: record.Timestamp(ts), Value: []byte(fmt.Sprintf("v%d", ts))}
		if err := tree.Insert(v); err != nil {
			t.Fatal(err)
		}
		ref.insert(v)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(120)))
		at := record.Timestamp(rng.Intn(2002))
		gv, gok, err := tree.GetAsOf(k, at)
		if err != nil {
			t.Fatal(err)
		}
		mv, mok := ref.getAsOf(k, at)
		if gok != mok || (gok && gv.Time != mv.Time) {
			t.Fatalf("GetAsOf(%s,%d): tree=%v,%v ref=%v,%v", k, at, gv, gok, mv, mok)
		}
	}
}
