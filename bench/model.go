package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/query"
	"repro/internal/record"
)

// model is the bench-side oracle: per key, the commit times of its
// acknowledged versions in order. The value of version seq of key idx is
// fillValue(idx, seq), so the list of times is the whole history. Every
// result the engine returns is compared with it.
type model struct {
	n    int       // initial keys; indexes >= n are inserted keys, kept by their owner
	keys []keyHist // [0, n)
	// namespaced says the engine holds every key under the anonymous
	// tenant's prefix, as the server stores what its sessions write.
	namespaced bool

	sortOnce sync.Once
	sorted   []int32 // initial key indexes in key order
}

type keyHist struct {
	mu  sync.Mutex
	cts []record.Timestamp
}

const userBytesPerVersion = 8 + valueLen // SpreadKey is 8 bytes

func newModel(n int, namespaced bool) *model {
	return &model{n: n, keys: make([]keyHist, n), namespaced: namespaced}
}

// key is key idx as the engine stores it; an RPC session names the same
// record keyOf(idx).
func (m *model) key(idx int) record.Key {
	if m.namespaced {
		return record.PrefixKey(nil, keyOf(idx))
	}
	return keyOf(idx)
}

// ack records that a version of key idx was acknowledged at ct. Only the
// key's owner calls it, so a key's acks arrive in commit order.
func (m *model) ack(idx int, ct record.Timestamp) {
	kh := &m.keys[idx]
	kh.mu.Lock()
	kh.cts = append(kh.cts, ct)
	kh.mu.Unlock()
}

func (m *model) versions(idx int) int {
	kh := &m.keys[idx]
	kh.mu.Lock()
	defer kh.mu.Unlock()
	return len(kh.cts)
}

// order returns the initial key indexes sorted by key.
func (m *model) order() []int32 {
	m.sortOnce.Do(func() {
		m.sorted = make([]int32, m.n)
		for i := range m.sorted {
			m.sorted[i] = int32(i)
		}
		slices.SortFunc(m.sorted, func(a, b int32) int { return keyOf(int(a)).Compare(keyOf(int(b))) })
	})
	return m.sorted
}

// lastAtOrBefore is the sequence number of the last version with
// commit time <= t, or -1.
func lastAtOrBefore(cts []record.Timestamp, t record.Timestamp) int {
	return sort.Search(len(cts), func(i int) bool { return cts[i] > t }) - 1
}

// checkVersion reports whether v is exactly version seq of key idx as
// the model knows it (cts is the key's history, held by the caller).
func (m *model) checkVersion(v record.Version, idx int, cts []record.Timestamp) (int, error) {
	if !v.Key.Equal(keyOf(idx)) && !v.Key.Equal(m.key(idx)) {
		return 0, fmt.Errorf("key %s, want index %d", v.Key, idx)
	}
	seq, ok := parseValue(v.Value, idx)
	if !ok {
		return 0, fmt.Errorf("key %d: value is not a generated version", idx)
	}
	if int(seq) < len(cts) && cts[seq] != v.Time {
		return 0, fmt.Errorf("key %d seq %d: time %d, acknowledged at %d", idx, seq, v.Time, cts[seq])
	}
	return int(seq), nil
}

// checkPoint verifies a point read of key idx at time t
// (record.TimeInfinity for a current read). floor is versions(idx)
// sampled before a current read was issued: the read must return at
// least the last version acknowledged by then. One version past the
// model is tolerated when it can only be a commit whose acknowledgement
// its owner has not recorded yet; with no concurrent writer the check is
// exact.
func (m *model) checkPoint(idx int, t record.Timestamp, floor int, v record.Version, found bool) error {
	kh := &m.keys[idx]
	kh.mu.Lock()
	defer kh.mu.Unlock()
	n := len(kh.cts)
	lo, hi := lastAtOrBefore(kh.cts, t), n
	if t == record.TimeInfinity {
		lo = floor - 1
	} else if lo < n-1 {
		hi = lo // a later acknowledged version bounds the answer exactly
	}
	if !found {
		if lo >= 0 {
			return fmt.Errorf("key %d at %d: not found, want seq >= %d", idx, t, lo)
		}
		return nil
	}
	seq, err := m.checkVersion(v, idx, kh.cts)
	if err != nil {
		return err
	}
	if seq < lo || seq > hi || v.Time > t {
		return fmt.Errorf("key %d at %d: seq %d time %d, want seq in [%d,%d]", idx, t, seq, v.Time, lo, hi)
	}
	return nil
}

// checkHistory verifies a full history read. The model must be a prefix
// of it; extra returns the versions beyond the model (unacknowledged
// commits, possible only while writers run or after a kill).
func (m *model) checkHistory(idx int, vs []record.Version) (extra []record.Version, err error) {
	kh := &m.keys[idx]
	kh.mu.Lock()
	defer kh.mu.Unlock()
	if len(vs) < len(kh.cts) {
		return nil, fmt.Errorf("key %d: history has %d versions, %d acknowledged", idx, len(vs), len(kh.cts))
	}
	for i, v := range vs {
		seq, err := m.checkVersion(v, idx, kh.cts)
		if err != nil {
			return nil, err
		}
		if seq != i {
			return nil, fmt.Errorf("key %d: history position %d holds seq %d", idx, i, seq)
		}
		if i > 0 && vs[i-1].Time >= v.Time {
			return nil, fmt.Errorf("key %d: history times not increasing at %d", idx, i)
		}
	}
	return vs[len(kh.cts):], nil
}

// scanFrom walks the initial keys in key order starting at the first
// key >= keyOf(start), calling visit until it returns false.
func (m *model) scanFrom(start int, visit func(idx int) bool) {
	ord := m.order()
	low := keyOf(start)
	p := sort.Search(len(ord), func(i int) bool { return keyOf(int(ord[i])).Compare(low) >= 0 })
	for ; p < len(ord); p++ {
		if !visit(int(ord[p])) {
			return
		}
	}
}

// checkScan verifies an as-of snapshot scan [keyOf(start), inf) at t
// with the given limit: exactly the model's rows, in key order. It runs
// only on workloads without concurrent writers, so it is exact.
func (m *model) checkScan(start int, t record.Timestamp, limit int, rows []record.Version) error {
	i := 0
	var err error
	m.scanFrom(start, func(idx int) bool {
		kh := &m.keys[idx]
		seq := lastAtOrBefore(kh.cts, t)
		if seq < 0 {
			return true // key not yet created at t
		}
		if i >= len(rows) {
			if i < limit {
				err = fmt.Errorf("scan from %d at %d: %d rows, key %d missing", start, t, len(rows), idx)
			}
			return false
		}
		got, verr := m.checkVersion(rows[i], idx, kh.cts)
		if verr == nil && got != seq {
			verr = fmt.Errorf("key %d at %d: seq %d, want %d", idx, t, got, seq)
		}
		if verr != nil {
			err = fmt.Errorf("scan row %d: %w", i, verr)
			return false
		}
		i++
		return i < limit
	})
	if err == nil && i != len(rows) {
		err = fmt.Errorf("scan from %d at %d: %d rows, model has %d", start, t, len(rows), i)
	}
	return err
}

// checkDiff verifies Diff(keyOf(start), inf, t1, t2).WithLimit(limit):
// one row per key with a version committed in (t1, t2], in key order,
// carrying the versions visible at t1 and t2.
func (m *model) checkDiff(start int, t1, t2 record.Timestamp, limit int, rows []query.Row) error {
	i := 0
	var err error
	m.scanFrom(start, func(idx int) bool {
		kh := &m.keys[idx]
		before, after := lastAtOrBefore(kh.cts, t1), lastAtOrBefore(kh.cts, t2)
		if after == before {
			return true // unchanged in the window
		}
		if i >= len(rows) {
			if i < limit {
				err = fmt.Errorf("diff from %d (%d,%d]: %d rows, key %d missing", start, t1, t2, len(rows), idx)
			}
			return false
		}
		err = m.checkDiffRow(rows[i], idx, kh.cts, before, after)
		if err != nil {
			err = fmt.Errorf("diff row %d: %w", i, err)
			return false
		}
		i++
		return i < limit
	})
	if err == nil && i != len(rows) {
		err = fmt.Errorf("diff from %d (%d,%d]: %d rows, model has %d", start, t1, t2, len(rows), i)
	}
	return err
}

func (m *model) checkDiffRow(row query.Row, idx int, cts []record.Timestamp, before, after int) error {
	if !row.Key.Equal(keyOf(idx)) {
		return fmt.Errorf("key %s, want index %d", row.Key, idx)
	}
	if row.HasBefore != (before >= 0) || !row.HasAfter {
		return fmt.Errorf("key %d: before/after flags %v/%v, want %v/true", idx, row.HasBefore, row.HasAfter, before >= 0)
	}
	want := []int{after}
	if before >= 0 {
		want = []int{before, after}
	}
	if len(row.Versions) != len(want) {
		return fmt.Errorf("key %d: %d versions in diff row, want %d", idx, len(row.Versions), len(want))
	}
	for j, v := range row.Versions {
		seq, err := m.checkVersion(v, idx, cts)
		if err != nil {
			return err
		}
		if seq != want[j] {
			return fmt.Errorf("key %d: diff version %d is seq %d, want %d", idx, j, seq, want[j])
		}
	}
	return nil
}
