package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// refRange computes ScanRange's answer from a refdb.
func refRange(m refdb, low record.Key, high record.Bound, from, to record.Timestamp) []record.Version {
	var out []record.Version
	for ks, hist := range m {
		k := record.Key(ks)
		if k.Compare(low) < 0 || high.CompareKey(k) <= 0 {
			continue
		}
		var alive record.Version
		hasAlive := false
		hasAtFrom := false
		for _, v := range hist {
			switch {
			case v.Time < from:
				if !hasAlive || v.Time > alive.Time {
					alive = v
					hasAlive = true
				}
			case v.Time < to:
				if v.Time == from {
					hasAtFrom = true
				}
				out = append(out, v)
			}
		}
		if hasAlive && !hasAtFrom && !alive.Tombstone {
			out = append(out, alive)
		}
	}
	sortVersions(out)
	return out
}

func TestScanRangeBasic(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	put(t, tree, "a", 1, "a1")
	put(t, tree, "b", 3, "b3")
	put(t, tree, "a", 5, "a5")
	put(t, tree, "a", 9, "a9")

	// Window [4,9): includes a5 (committed inside), a1 is superseded
	// before the window opens... a1 is alive at t=4, so it belongs.
	vs, err := tree.ScanRange(nil, record.InfiniteBound(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "a5", "b3"}
	if len(vs) != len(want) {
		t.Fatalf("ScanRange = %v, want %v", vs, want)
	}
	for i, w := range want {
		if string(vs[i].Value) != w {
			t.Errorf("ScanRange[%d] = %s, want %s", i, vs[i], w)
		}
	}

	// Window starting exactly at a commit: [5,10) must not include a1.
	vs, _ = tree.ScanRange(nil, record.InfiniteBound(), 5, 10)
	for _, v := range vs {
		if string(v.Value) == "a1" {
			t.Error("a1 not valid inside [5,10)")
		}
	}

	// Empty and inverted windows.
	if vs, _ := tree.ScanRange(nil, record.InfiniteBound(), 7, 7); len(vs) != 0 {
		t.Error("empty window should return nothing")
	}
	if vs, _ := tree.ScanRange(nil, record.InfiniteBound(), 9, 4); len(vs) != 0 {
		t.Error("inverted window should return nothing")
	}
}

func TestScanRangeTombstones(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	put(t, tree, "k", 2, "v2")
	del(t, tree, "k", 5)
	put(t, tree, "k", 8, "v8")

	// The tombstone is reported inside the window (the record stopped
	// existing at 5); a tombstone alive at window start is not.
	vs, _ := tree.ScanRange(nil, record.InfiniteBound(), 3, 9)
	if len(vs) != 3 || !vs[1].Tombstone {
		t.Fatalf("ScanRange = %v, want v2, tombstone, v8", vs)
	}
	vs, _ = tree.ScanRange(nil, record.InfiniteBound(), 6, 8)
	if len(vs) != 0 {
		t.Fatalf("key deleted before window and re-created after: %v", vs)
	}
}

// TestHistoryRange: ScanRange over a one-key window is that key's
// history in [from, to), preceded by the version alive at from.
func TestHistoryRange(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	// k at odd times 1,3,..,19; other interleaved at even times.
	for i := 1; i <= 10; i++ {
		put(t, tree, "k", uint64(2*i-1), fmt.Sprintf("v%d", 2*i-1))
		put(t, tree, "other", uint64(2*i), "x")
	}
	k := record.StringKey("k")
	vs, err := tree.ScanRange(k, record.KeyBound(append(k.Clone(), 0)), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Window [4,8): alive at 4 is k@3; inside the window: k@5, k@7.
	wantTimes := []record.Timestamp{3, 5, 7}
	if len(vs) != len(wantTimes) {
		t.Fatalf("ScanRange = %v, want times %v", vs, wantTimes)
	}
	for i, v := range vs {
		if v.Time != wantTimes[i] || !v.Key.Equal(k) {
			t.Errorf("ScanRange[%d] = %v, want time %v", i, v, wantTimes[i])
		}
	}
}

func TestScanRangeModelEquivalence(t *testing.T) {
	for _, policyName := range []string{"key-pref", "time-pref", "last-update"} {
		p := policies()[policyName]
		t.Run(policyName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			tree, _, _ := newTestTree(t, p)
			ref := make(refdb)
			ts := uint64(0)
			for op := 0; op < 800; op++ {
				ts++
				k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(40)))
				v := record.Version{Key: k, Time: record.Timestamp(ts)}
				if rng.Intn(12) == 0 {
					v.Tombstone = true
				} else {
					v.Value = []byte(fmt.Sprintf("v%d", ts))
				}
				if err := tree.Insert(v); err != nil {
					t.Fatal(err)
				}
				ref.insert(v)
			}
			checkOK(t, tree)
			for trial := 0; trial < 120; trial++ {
				from := record.Timestamp(rng.Intn(int(ts)))
				to := from + record.Timestamp(rng.Intn(200))
				var low record.Key
				high := record.InfiniteBound()
				if rng.Intn(2) == 0 {
					low = record.StringKey(fmt.Sprintf("key%03d", rng.Intn(40)))
					high = record.KeyBound(record.StringKey(fmt.Sprintf("key%03d", rng.Intn(40))))
				}
				got, err := tree.ScanRange(low, high, from, to)
				if err != nil {
					t.Fatal(err)
				}
				want := refRange(ref, low, high, from, to)
				if len(got) != len(want) {
					t.Fatalf("ScanRange(%s,%s,[%d,%d)) = %d versions, want %d\ngot:  %v\nwant: %v",
						low, high, from, to, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i].Time != want[i].Time || !got[i].Key.Equal(want[i].Key) {
						t.Fatalf("ScanRange[%d] = %v, want %v", i, got[i], want[i])
					}
				}
			}
		})
	}
}
