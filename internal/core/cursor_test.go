package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// drain pages the snapshot of [low, high) at time at through
// ScanPageAsOf and each page's Resume, as txn.Cursor does, and returns
// every version in page order.
func drain(tree *Tree, at record.Timestamp, low record.Key, high record.Bound, reverse bool) ([]record.Version, error) {
	return drainPages(nil, func() (Page, error) { return tree.ScanPageAsOf(at, low, high, reverse) })
}

// drainPages collects the page first reads and every page its Resume
// chain reads, running between (when non-nil) before each Resume.
func drainPages(between func(), first func() (Page, error)) ([]record.Version, error) {
	var out []record.Version
	for p, err := first(); ; p, err = p.Resume() {
		if err != nil {
			return nil, err
		}
		out = append(out, p.Versions...)
		if p.Resume == nil {
			return out, nil
		}
		if between != nil {
			between()
		}
	}
}

func TestCursorMatchesScanAsOf(t *testing.T) {
	for _, policyName := range []string{"key-pref", "time-pref", "last-update"} {
		p := policies()[policyName]
		t.Run(policyName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			tree, _, _ := newTestTree(t, p)
			ts := uint64(0)
			for op := 0; op < 700; op++ {
				ts++
				k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(50)))
				v := record.Version{Key: k, Time: record.Timestamp(ts)}
				if rng.Intn(10) == 0 {
					v.Tombstone = true
				} else {
					v.Value = []byte(fmt.Sprintf("v%d", ts))
				}
				if err := tree.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 40; trial++ {
				at := record.Timestamp(1 + rng.Intn(int(ts)))
				var low record.Key
				high := record.InfiniteBound()
				if trial%2 == 1 {
					low = record.StringKey(fmt.Sprintf("key%03d", rng.Intn(50)))
					high = record.KeyBound(record.StringKey(fmt.Sprintf("key%03d", rng.Intn(50))))
				}
				want, err := tree.ScanAsOf(at, low, high)
				if err != nil {
					t.Fatal(err)
				}
				got, err := drain(tree, at, low, high, false)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("cursor@%d [%s,%s) returned %d, scan %d", at, low, high, len(got), len(want))
				}
				for i := range want {
					if !got[i].Key.Equal(want[i].Key) || got[i].Time != want[i].Time {
						t.Fatalf("cursor[%d] = %v, scan %v", i, got[i], want[i])
					}
					if i > 0 && !got[i-1].Key.Less(got[i].Key) {
						t.Fatalf("cursor out of order at %d", i)
					}
				}
			}
		})
	}
}

func TestReverseCursorMatchesScanAsOf(t *testing.T) {
	for _, policyName := range []string{"key-pref", "time-pref", "last-update"} {
		p := policies()[policyName]
		t.Run(policyName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			tree, _, _ := newTestTree(t, p)
			ts := uint64(0)
			for op := 0; op < 700; op++ {
				ts++
				k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(50)))
				v := record.Version{Key: k, Time: record.Timestamp(ts)}
				if rng.Intn(10) == 0 {
					v.Tombstone = true
				} else {
					v.Value = []byte(fmt.Sprintf("v%d", ts))
				}
				if err := tree.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 40; trial++ {
				at := record.Timestamp(1 + rng.Intn(int(ts)))
				var low record.Key
				high := record.InfiniteBound()
				if trial%2 == 1 {
					low = record.StringKey(fmt.Sprintf("key%03d", rng.Intn(50)))
					high = record.KeyBound(record.StringKey(fmt.Sprintf("key%03d", rng.Intn(50))))
				}
				want, err := tree.ScanAsOf(at, low, high)
				if err != nil {
					t.Fatal(err)
				}
				got, err := drain(tree, at, low, high, true)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("reverse cursor@%d [%s,%s) returned %d, scan %d", at, low, high, len(got), len(want))
				}
				for i := range want {
					w := want[len(want)-1-i]
					if !got[i].Key.Equal(w.Key) || got[i].Time != w.Time {
						t.Fatalf("reverse cursor[%d] = %v, scan %v", i, got[i], w)
					}
					if i > 0 && !got[i].Key.Less(got[i-1].Key) {
						t.Fatalf("reverse cursor out of order at %d", i)
					}
				}
			}
		})
	}
}

func TestCursorEmptyAndExhausted(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	p, err := tree.ScanPageAsOf(10, nil, record.InfiniteBound(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Versions) != 0 || p.Resume != nil {
		t.Fatalf("page of an empty tree = %+v, want empty and exhausted", p)
	}
}

func TestDiffBasic(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	put(t, tree, "a", 1, "a1")
	put(t, tree, "b", 2, "b1")
	put(t, tree, "a", 5, "a2") // updated inside window
	put(t, tree, "c", 6, "c1") // created inside window
	del(t, tree, "b", 7)       // deleted inside window
	put(t, tree, "d", 8, "d1") // created then deleted inside window
	del(t, tree, "d", 9)
	put(t, tree, "e", 12, "e1") // after window

	changes, err := tree.Diff(nil, record.InfiniteBound(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "updated", "b": "deleted", "c": "created"}
	if len(changes) != len(want) {
		t.Fatalf("Diff = %+v, want keys %v", changes, want)
	}
	for _, c := range changes {
		if want[string(c.Key)] != c.Kind() {
			t.Errorf("Diff(%s) = %s, want %s", c.Key, c.Kind(), want[string(c.Key)])
		}
	}
	// Detail checks.
	if string(changes[0].Before.Value) != "a1" || string(changes[0].After.Value) != "a2" {
		t.Errorf("a change detail: %+v", changes[0])
	}
	if !changes[1].HasBefor || changes[1].HasAfter {
		t.Errorf("b change detail: %+v", changes[1])
	}
	// Empty/inverted windows.
	if cs, _ := tree.Diff(nil, record.InfiniteBound(), 5, 5); len(cs) != 0 {
		t.Error("empty window should produce no changes")
	}
	// Unchanged key never reported.
	for _, c := range changes {
		if c.Key.Equal(record.StringKey("e")) {
			t.Error("key changed outside the window reported")
		}
	}
}

func TestDiffModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	ref := make(refdb)
	ts := uint64(0)
	for op := 0; op < 600; op++ {
		ts++
		k := record.StringKey(fmt.Sprintf("key%03d", rng.Intn(30)))
		v := record.Version{Key: k, Time: record.Timestamp(ts)}
		if rng.Intn(8) == 0 {
			v.Tombstone = true
		} else {
			v.Value = []byte(fmt.Sprintf("v%d", ts))
		}
		if err := tree.Insert(v); err != nil {
			t.Fatal(err)
		}
		ref.insert(v)
	}
	for trial := 0; trial < 60; trial++ {
		from := record.Timestamp(rng.Intn(int(ts)))
		to := from + 1 + record.Timestamp(rng.Intn(150))
		got, err := tree.Diff(nil, record.InfiniteBound(), from, to)
		if err != nil {
			t.Fatal(err)
		}
		gotByKey := make(map[string]Change)
		for _, c := range got {
			gotByKey[string(c.Key)] = c
		}
		for i := 0; i < 30; i++ {
			k := record.StringKey(fmt.Sprintf("key%03d", i))
			before, hasBefore := ref.getAsOf(k, from)
			after, hasAfter := ref.getAsOf(k, to)
			changed := hasBefore != hasAfter ||
				(hasBefore && (before.Time != after.Time))
			c, reported := gotByKey[string(k)]
			if changed != reported {
				t.Fatalf("Diff[%d,%d] key %s: changed=%v reported=%v", from, to, k, changed, reported)
			}
			if !reported {
				continue
			}
			if c.HasBefor != hasBefore || c.HasAfter != hasAfter {
				t.Fatalf("Diff key %s flags: %+v vs ref before=%v after=%v", k, c, hasBefore, hasAfter)
			}
			if hasAfter && c.After.Time != after.Time {
				t.Fatalf("Diff key %s after = %v, ref %v", k, c.After, after)
			}
		}
	}
}
