package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/record"
)

// refRange computes ScanRange's answer from a refdb.
func refRange(m refdb, low record.Key, high record.Bound, from, to record.Timestamp) []record.Version {
	if to <= from {
		return nil // an empty or inverted window holds nothing
	}
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

// rangePolicies are the split policies the window-walk model checks run
// under.
var rangePolicies = []string{"key-pref", "time-pref", "last-update"}

// buildRangeModel inserts ops random committed versions (one per tick,
// every twelfth a tombstone) of 40 keys into a fresh tree and into a
// model, and returns both with the last tick.
func buildRangeModel(t *testing.T, p Policy, rng *rand.Rand, ops int) (*Tree, refdb, uint64) {
	t.Helper()
	tree, _, _ := newTestTree(t, p)
	ref := make(refdb)
	ts := uint64(0)
	for op := 0; op < ops; op++ {
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
	return tree, ref, ts
}

// edgeWindows returns the windows at the edges of a history whose
// versions were committed at ticks 1..last: from the origin of time, from
// and to exactly at a version's time, to the open end of time, and the
// latest state at TimePending.
func edgeWindows(rng *rand.Rand, last uint64) [][2]record.Timestamp {
	at := func() record.Timestamp { return record.Timestamp(1 + rng.Int63n(int64(last)+1)) }
	t1, t2 := at(), at()
	return [][2]record.Timestamp{
		{record.TimeZero, at()},
		{min(t1, t2), max(t1, t2)},
		{at(), record.TimeInfinity},
		{record.TimeZero, record.TimeInfinity},
		{record.Timestamp(last), record.Timestamp(last + 1)},
		{record.TimePending, record.TimeInfinity},
	}
}

// splitter writes into a tree between the pages of a drain, so every
// resumed page runs after the splits it forces. Its versions are pending
// versions of keys the model does not hold: invisible at every read
// time, so no read under check may change. They lie between the model's
// keys, so they land in the leaves being paged; each run inserts one
// burst of them, until the budget is spent.
type splitter struct {
	t      *testing.T
	tree   *Tree
	rng    *rand.Rand
	burst  int
	budget int
}

// splitterTxn is the transaction whose write locks the pending versions
// are.
const splitterTxn = 1 << 40

func (s *splitter) write() {
	for i := 0; i < s.burst && s.budget > 0; i++ {
		s.budget--
		k := record.StringKey(fmt.Sprintf("key%03d~%05d", s.rng.Intn(40), s.budget))
		v := record.Version{Key: k, Time: record.TimePending, TxnID: splitterTxn, Value: []byte("pending")}
		if err := s.tree.Insert(v); err != nil {
			s.t.Fatal(err)
		}
	}
}

// checkWindow checks every read built on the window walk or on the edge
// descent against the model, over the keys in [low, high): ScanRange of
// [from, to), and the window pages of it; the snapshot at from through
// ScanAsOf and through pages drained in both directions; and History of
// each key. Every drain runs between (when non-nil) between its pages:
// with a splitter's write, resumed pages are checked across key splits,
// time splits and root splits.
func checkWindow(t *testing.T, tree *Tree, ref refdb, between func(), low record.Key, high record.Bound, from, to record.Timestamp) {
	t.Helper()
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

	var snap []record.Version
	for _, v := range ref.snapshot(from) {
		if v.Key.Compare(low) >= 0 && high.CompareKey(v.Key) > 0 {
			snap = append(snap, v)
		}
	}
	sortVersions(snap)
	back := slices.Clone(snap)
	slices.Reverse(back)
	for _, r := range []struct {
		name string
		want []record.Version
		read func() ([]record.Version, error)
	}{
		{"ScanAsOf", snap, func() ([]record.Version, error) { return tree.ScanAsOf(from, low, high) }},
		{"pages", snap, func() ([]record.Version, error) {
			return drainPages(between, func() (Page, error) { return tree.ScanPageAsOf(from, low, high, false) })
		}},
		{"reverse pages", back, func() ([]record.Version, error) {
			return drainPages(between, func() (Page, error) { return tree.ScanPageAsOf(from, low, high, true) })
		}},
		{"window pages", want, func() ([]record.Version, error) {
			return drainPages(between, func() (Page, error) { return tree.ScanRangePage(low, high, from, to) })
		}},
	} {
		got, err := r.read()
		if err != nil || !sameVersions(got, r.want) {
			t.Fatalf("%s@[%d,%d) [%s,%s) = %v, %v; want %v", r.name, from, to, low, high, got, err, r.want)
		}
	}

	for k, hist := range ref {
		if record.Key(k).Compare(low) < 0 || high.CompareKey(record.Key(k)) <= 0 {
			continue
		}
		h, err := tree.History(record.Key(k))
		if err != nil || !sameVersions(h, hist) {
			t.Fatalf("History(%s) = %v, %v; want %v", k, h, err, hist)
		}
	}
}

func TestScanRangeModelEquivalence(t *testing.T) {
	for _, policyName := range rangePolicies {
		p := policies()[policyName]
		t.Run(policyName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			tree, ref, ts := buildRangeModel(t, p, rng, 800)
			before := tree.Stats()
			// The writer draws from its own source, so the trial
			// windows stay those of the seed.
			w := &splitter{t: t, tree: tree, rng: rand.New(rand.NewSource(22)), burst: 4, budget: 1500}
			for trial := 0; trial < 120; trial++ {
				from := record.Timestamp(rng.Intn(int(ts)))
				to := from + record.Timestamp(rng.Intn(200))
				var low record.Key
				high := record.InfiniteBound()
				if rng.Intn(2) == 0 {
					low = record.StringKey(fmt.Sprintf("key%03d", rng.Intn(40)))
					high = record.KeyBound(record.StringKey(fmt.Sprintf("key%03d", rng.Intn(40))))
				}
				checkWindow(t, tree, ref, w.write, low, high, from, to)
			}
			for _, e := range edgeWindows(rng, ts) {
				checkWindow(t, tree, ref, w.write, nil, record.InfiniteBound(), e[0], e[1])
			}
			checkOK(t, tree)
			// The writer ran only between pages: every split below
			// happened under a paused scan.
			after := tree.Stats()
			if after.LeafKeySplits == before.LeafKeySplits || after.LeafTimeSplits == before.LeafTimeSplits || after.RootSplits == before.RootSplits {
				t.Fatalf("the writer between pages forced too little: splits before %+v, after %+v", before, after)
			}
		})
	}
}

// FuzzScanRange builds a tree with TestScanRangeModelEquivalence's
// workload from a fuzzed seed, policy and length, and checks one fuzzed
// window of it with the same model checker. Run it with
//
//	go test -run='^$' -fuzz=FuzzScanRange -fuzztime=30s ./internal/core
func FuzzScanRange(f *testing.F) {
	for i := range rangePolicies {
		f.Add(int64(21), uint8(i), uint16(800), uint8(40), uint8(40), uint64(0), uint64(200))
		f.Add(int64(21), uint8(i), uint16(800), uint8(3), uint8(31), uint64(400), uint64(record.TimeInfinity))
	}
	f.Fuzz(func(t *testing.T, seed int64, policy uint8, ops uint16, lowKey, highKey uint8, from, to uint64) {
		p := policies()[rangePolicies[int(policy)%len(rangePolicies)]]
		rng := rand.New(rand.NewSource(seed))
		tree, ref, _ := buildRangeModel(t, p, rng, int(ops%1024))
		w := &splitter{t: t, tree: tree, rng: rng, burst: 4, budget: 1500}
		// Key 40 and above: no low bound, no high bound.
		var low record.Key
		high := record.InfiniteBound()
		if lowKey < 40 {
			low = record.StringKey(fmt.Sprintf("key%03d", lowKey))
		}
		if highKey < 40 {
			high = record.KeyBound(record.StringKey(fmt.Sprintf("key%03d", highKey)))
		}
		checkWindow(t, tree, ref, w.write, low, high, record.Timestamp(from), record.Timestamp(to))
	})
}
