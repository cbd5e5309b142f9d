package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/record"
	"repro/internal/storage"
)

// splitNode splits node n (which overflowed, or is a leaf forced to time
// split) and returns the entries that replace its single parent entry.
// Current halves are rewritten in place on magnetic pages; older halves are
// migrated to the WORM. forced requests a time split per §3.5's "marked to
// be time split at the next opportunity" optimization. An index node is
// split as a clone: n itself may be the index level's.
func (t *Tree) splitNode(n *node, forced bool) ([]entry, error) {
	delete(t.marked, n.addr.Off)
	if n.leaf {
		return t.splitLeaf(n, forced)
	}
	return t.splitIndex(n.clone())
}

// --- Data node splitting (§3.1-§3.3) ---

// currentVersionStats summarizes a leaf for the split decision: how many of
// its versions are current (the latest of their key, including pending) and
// whether any update (superseded version) exists.
func currentVersionStats(n *node) (current, total int, distinctKeys int, hasUpdates bool) {
	latest := make(map[string]int) // key -> index of latest version
	for i, v := range n.versions {
		if j, ok := latest[string(v.Key)]; ok {
			hasUpdates = true
			if n.versions[j].Before(v) {
				latest[string(v.Key)] = i
			}
		} else {
			latest[string(v.Key)] = i
		}
	}
	return len(latest), len(n.versions), len(latest), hasUpdates
}

// chooseSplitTime returns the time value for a time split of leaf n under
// the tree's policy, and whether a legal, useful time exists: it must be
// strictly inside the node's time interval and leave a non-empty
// historical half.
func (t *Tree) chooseSplitTime(n *node) (record.Timestamp, bool) {
	var times []record.Timestamp // committed version times, sorted
	lastUpdate := record.TimeZero
	first := make(map[string]record.Timestamp)
	for _, v := range n.versions {
		if v.IsPending() {
			continue
		}
		times = append(times, v.Time)
		if ft, ok := first[string(v.Key)]; !ok || v.Time < ft {
			first[string(v.Key)] = v.Time
		}
	}
	for _, v := range n.versions {
		if v.IsPending() {
			continue
		}
		if v.Time > first[string(v.Key)] && v.Time > lastUpdate {
			lastUpdate = v.Time // an update: not the first version of its key
		}
	}
	if len(times) == 0 {
		return 0, false
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	legal := func(T record.Timestamp) bool {
		if T <= n.rect.Start || T > t.now {
			return false
		}
		return times[0] < T // historical half must be non-empty
	}
	var T record.Timestamp
	switch t.policy.SplitTime {
	case SplitAtLastUpdate:
		T = lastUpdate
	case SplitAtMedian:
		T = times[len(times)/2]
	default:
		T = t.now
	}
	if legal(T) {
		return T, true
	}
	// Fall back to the current time, the WOBT's only option.
	if legal(t.now) {
		return t.now, true
	}
	return 0, false
}

// splitLeaf implements the data-node split of §3.1-§3.3 and the decision
// criteria of §3.2: a node of all-current versions must key split, a node
// with one distinct key must time split, and in between the policy's
// threshold on the current fraction decides.
func (t *Tree) splitLeaf(n *node, forced bool) ([]entry, error) {
	current, total, distinctKeys, hasUpdates := currentVersionStats(n)
	T, canTime := t.chooseSplitTime(n)
	canKey := distinctKeys >= 2

	wantTime := forced
	if !forced {
		frac := float64(current) / float64(total)
		wantTime = frac <= t.policy.KeySplitFraction
		if !hasUpdates {
			// Insert-only node: "time splitting by itself is
			// useless. Key space splitting must be done" (§3.2).
			// A forced split is the exception: the node was marked
			// so that migrating it unblocks an index time split.
			wantTime = false
		}
	}

	switch {
	case wantTime && canTime:
		if forced {
			t.stats.ForcedTimeSplits++
		}
		return t.timeSplitLeaf(n, T)
	case canKey:
		return t.keySplitLeaf(n)
	case canTime:
		return t.timeSplitLeaf(n, T)
	default:
		return nil, fmt.Errorf("core: leaf %s cannot be split (single key, no committed history)", n.addr)
	}
}

// partitionVersions applies the Time-Split Rule of §3.1 at time T to a
// leaf's versions, returning the historical half, the current half
// (including the rule-3 redundant copies), and the redundant-copy count.
// Both halves come back in canonical sorted order, so the encoding of the
// historical node is a deterministic function of (versions, T).
func partitionVersions(versions []record.Version, T record.Timestamp) (hist, cur []record.Version, redundant int) {
	aliveAt := make(map[string]record.Version)
	hasAtT := make(map[string]bool)
	for _, v := range versions {
		switch {
		case v.IsPending():
			cur = append(cur, v)
		case v.Time < T:
			hist = append(hist, v)
			if prev, ok := aliveAt[string(v.Key)]; !ok || v.Time > prev.Time {
				aliveAt[string(v.Key)] = v
			}
		default:
			cur = append(cur, v)
			if v.Time == T {
				hasAtT[string(v.Key)] = true
			}
		}
	}
	for k, v := range aliveAt {
		// The version valid at T — the one with "the largest time
		// smaller than or equal to T" — must be in the new node
		// (rule 3). If the key has a version at exactly T, rule 2
		// already placed it there. Tombstones are not carried: the
		// key is simply absent from the current node.
		if hasAtT[k] || v.Tombstone {
			continue
		}
		cur = append(cur, v)
		redundant++
	}
	sortVersions(hist)
	sortVersions(cur)
	return hist, cur, redundant
}

// timeSplitLeaf applies the Time-Split Rule of §3.1 at time T:
//
//  1. all entries with time less than T go in the old (historical) node;
//  2. all entries with time greater or equal to T go in the new node;
//  3. for each key, the version valid at the split time must be in the
//     new node — forcing redundancy for records persisting across T.
//
// Pending versions carry no timestamp and always stay current (§4).
// The historical half is migrated to the WORM here, node at a time
// (§3.4), under whatever latch the caller holds.
// If the surviving current node would still overflow, it is immediately
// key split as well (the WOBT's "split by key value and current time").
func (t *Tree) timeSplitLeaf(n *node, T record.Timestamp) ([]entry, error) {
	histRect, curRect := n.rect.SplitAtTime(T)
	hist, cur, redundant := partitionVersions(n.versions, T)
	if len(hist) == 0 {
		return nil, fmt.Errorf("core: time split of %s at %s leaves empty historical node", n.addr, T)
	}

	histAddr, err := t.migrate(&node{rect: histRect, leaf: true, versions: hist})
	if err != nil {
		return nil, err
	}
	t.stats.LeafTimeSplits++
	t.stats.RedundantVersions += uint64(redundant)

	n.rect = curRect
	n.versions = cur
	entries := []entry{{rect: histRect, child: histAddr}}

	// If redundancy kept the current node overfull, key split it too.
	if t.size(n)+t.versionSlack() > t.cfg.LeafCapacity {
		if _, _, dk, _ := currentVersionStats(n); dk >= 2 {
			more, err := t.keySplitLeaf(n)
			if err != nil {
				return nil, err
			}
			t.stats.LeafKeySplits-- // count the combination once
			t.stats.LeafTimeKeySplits++
			return append(entries, more...), nil
		}
	}
	if err := t.writeCurrent(n); err != nil {
		return nil, err
	}
	return append(entries, entry{rect: curRect, child: n.addr}), nil
}

// keySplitLeaf performs the B+-tree-style key split of §3.1: the records
// with keys below the split value stay in the old (rewritten) node, the
// rest move to one new node. The new index entry inherits the node's time
// interval — "the timestamp in the new index entry is the same as the
// timestamp of the previous index entry referring to the old data node"
// (Figure 5).
func (t *Tree) keySplitLeaf(n *node) ([]entry, error) {
	s, ok := byteBalancedKeySplit(n)
	if !ok {
		return nil, fmt.Errorf("core: leaf %s has a single distinct key, cannot key split", n.addr)
	}
	leftRect, rightRect := n.rect.SplitAtKey(s)
	var left, right []record.Version
	for _, v := range n.versions {
		if v.Key.Compare(s) < 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	page, err := t.mag.Alloc()
	if err != nil {
		return nil, err
	}
	rightNode := &node{
		addr:     storage.Addr{Kind: storage.KindMagnetic, Off: page},
		rect:     rightRect,
		leaf:     true,
		versions: right,
	}
	n.rect = leftRect
	n.versions = left
	t.stats.LeafKeySplits++
	t.stats.CurrentNodes++

	out := []entry{{rect: leftRect, child: n.addr}, {rect: rightRect, child: rightNode.addr}}
	// Pathological value sizes can leave a half overfull; split further.
	finished := make([]entry, 0, 2)
	for _, en := range out {
		nd := n
		if en.child == rightNode.addr {
			nd = rightNode
		}
		if t.size(nd)+t.versionSlack() > t.cfg.LeafCapacity {
			if _, _, dk, _ := currentVersionStats(nd); dk >= 2 {
				more, err := t.keySplitLeaf(nd)
				if err != nil {
					return nil, err
				}
				finished = append(finished, more...)
				continue
			}
		}
		if err := t.writeCurrent(nd); err != nil {
			return nil, err
		}
		finished = append(finished, en)
	}
	return finished, nil
}

// byteBalancedKeySplit picks the split key that best balances the encoded
// bytes of the two halves. It returns false when the node holds a single
// distinct key.
func byteBalancedKeySplit(n *node) (record.Key, bool) {
	type group struct {
		key   record.Key
		bytes int
	}
	var groups []group
	for _, v := range n.versions {
		if len(groups) > 0 && groups[len(groups)-1].key.Equal(v.Key) {
			groups[len(groups)-1].bytes += v.EncodedSize()
			continue
		}
		groups = append(groups, group{key: v.Key, bytes: v.EncodedSize()})
	}
	if len(groups) < 2 {
		return nil, false
	}
	total := 0
	for _, g := range groups {
		total += g.bytes
	}
	best, bestDiff, acc := 1, total, 0
	for i := 0; i < len(groups)-1; i++ {
		acc += groups[i].bytes
		diff := acc - (total - acc)
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = i + 1
		}
	}
	return groups[best].key.Clone(), true
}

// versionSlack bounds the encoded size of any single version, so split
// results are guaranteed to absorb the insertion that triggered the split.
func (t *Tree) versionSlack() int {
	return t.cfg.MaxKeySize + t.cfg.MaxValueSize + 12
}

// --- Index node splitting (§3.5) ---

// splitIndex splits an overflowing index node, preferring a local time
// split or a keyspace split according to the policy and to what is legal.
func (t *Tree) splitIndex(n *node) ([]entry, error) {
	magCount := 0
	var minMagStart record.Timestamp = record.TimeInfinity
	for _, e := range n.entries {
		if e.isCurrent() {
			magCount++
			if e.rect.Start < minMagStart {
				minMagStart = e.rect.Start
			}
		}
	}
	// A local time split needs a time before which no reference to the
	// current database exists (§3.5); entries wholly before it migrate.
	canTime := minMagStart > n.rect.Start && anyEntryBefore(n, minMagStart)
	canKey := magCount >= 2

	wantTime := float64(magCount)/float64(len(n.entries)) <= t.policy.IndexKeySplitFraction

	switch {
	case wantTime && canTime:
		return t.timeSplitIndex(n, minMagStart)
	case canKey:
		if wantTime && !canTime {
			// Figure 9: a current child created at the node's own
			// start time blocks the time split. Mark such leaves
			// to be time split at the next opportunity (§3.5).
			t.markBlockingChildren(n)
		}
		return t.keySplitIndex(n)
	case canTime:
		return t.timeSplitIndex(n, minMagStart)
	default:
		return nil, fmt.Errorf("core: index node %s cannot be split", n.addr)
	}
}

func anyEntryBefore(n *node, T record.Timestamp) bool {
	for _, e := range n.entries {
		if e.rect.Start < T {
			return true
		}
	}
	return false
}

// markBlockingChildren marks the magnetic leaf children whose entries start
// at the node's own start time — the nodes preventing a local index time
// split in Figure 9.
func (t *Tree) markBlockingChildren(n *node) {
	for _, e := range n.entries {
		if !e.isCurrent() || e.rect.Start != n.rect.Start {
			continue
		}
		child, err := t.readNode(e.child)
		if err != nil || !child.leaf {
			continue
		}
		if !t.marked[e.child.Off] {
			t.marked[e.child.Off] = true
			t.stats.MarkedLeaves++
		}
	}
}

// partitionEntries applies the local index time split of §3.5 (Figure 8)
// at time T to an index node's entries: everything before T goes in the
// historical half (clipped at T), everything after T in the current half,
// and entries spanning T are clipped into both (the redundant count).
// Both halves preserve the input order.
func partitionEntries(entries []entry, T record.Timestamp) (hist, cur []entry, redundant int) {
	for _, e := range entries {
		spansT := e.rect.Start < T && e.rect.End > T
		if e.rect.Start < T {
			he := e
			if he.rect.End > T {
				he.rect.End = T
			}
			hist = append(hist, he)
		}
		if e.rect.End > T {
			ce := e
			if ce.rect.Start < T {
				ce.rect.Start = T
			}
			cur = append(cur, ce)
		}
		if spansT {
			redundant++
		}
	}
	return hist, cur, redundant
}

// timeSplitIndex performs the local index time split of §3.5 (Figure 8):
// everything before T — all of it referencing historical nodes — migrates
// into one historical index node; entries spanning T are clipped into both
// halves (the redundant index entries all point to historical nodes).
func (t *Tree) timeSplitIndex(n *node, T record.Timestamp) ([]entry, error) {
	histRect, curRect := n.rect.SplitAtTime(T)
	hist, cur, redundant := partitionEntries(n.entries, T)
	t.stats.RedundantIndexEntries += uint64(redundant)
	if len(hist) == 0 {
		return nil, fmt.Errorf("core: index time split of %s at %s is empty", n.addr, T)
	}
	histAddr, err := t.migrate(&node{rect: histRect, leaf: false, entries: hist})
	if err != nil {
		return nil, err
	}
	t.stats.IndexTimeSplits++
	n.rect = curRect
	n.entries = cur
	sortEntries(n.entries)
	if err := t.writeCurrent(n); err != nil {
		return nil, err
	}
	return []entry{{rect: histRect, child: histAddr}, {rect: curRect, child: n.addr}}, nil
}

// keySplitIndex applies the Index Node Keyspace Split Rule of §3.5:
//
//  1. the split value is a key value actually used in an entry;
//  2. entries whose key range upper bound is <= the split value go left;
//  3. entries whose lower bound is >= the split value go right;
//  4. all others — guaranteed to reference the historical database — are
//     copied to both nodes (clipped to each side's rectangle).
func (t *Tree) keySplitIndex(n *node) ([]entry, error) {
	s, ok := indexSplitValue(n)
	if !ok {
		return nil, fmt.Errorf("core: index node %s has no usable keyspace split value", n.addr)
	}
	leftRect, rightRect := n.rect.SplitAtKey(s)
	var left, right []entry
	for _, e := range n.entries {
		switch {
		case e.rect.HighKey.CompareKey(s) <= 0:
			left = append(left, e)
		case e.rect.LowKey.Compare(s) >= 0:
			right = append(right, e)
		default:
			// Rule 4: the key range strictly contains s.
			if e.isCurrent() {
				return nil, fmt.Errorf("core: current entry %s spans index split value %s (violates §3.5 rule 4 guarantee)", e.rect, s)
			}
			le, re := e, e
			le.rect.HighKey = record.KeyBound(s.Clone())
			re.rect.LowKey = s.Clone()
			left = append(left, le)
			right = append(right, re)
			t.stats.RedundantIndexEntries++
		}
	}
	page, err := t.mag.Alloc()
	if err != nil {
		return nil, err
	}
	rightNode := &node{
		addr:    storage.Addr{Kind: storage.KindMagnetic, Off: page},
		rect:    rightRect,
		leaf:    false,
		entries: right,
	}
	sortEntries(rightNode.entries)
	n.rect = leftRect
	n.entries = left
	sortEntries(n.entries)
	if err := t.writeCurrent(n); err != nil {
		return nil, err
	}
	if err := t.writeCurrent(rightNode); err != nil {
		return nil, err
	}
	t.stats.IndexKeySplits++
	t.stats.CurrentNodes++
	return []entry{{rect: leftRect, child: n.addr}, {rect: rightRect, child: rightNode.addr}}, nil
}

// indexSplitValue picks the median boundary among the current children's
// low keys. Choosing a current-child boundary guarantees no current entry
// strictly contains the split value, since current entries tile the key
// space at the present time.
func indexSplitValue(n *node) (record.Key, bool) {
	var bounds []record.Key
	for _, e := range n.entries {
		if e.isCurrent() && e.rect.LowKey.Compare(n.rect.LowKey) > 0 {
			bounds = append(bounds, e.rect.LowKey)
		}
	}
	if len(bounds) == 0 {
		return nil, false
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].Less(bounds[j]) })
	return bounds[len(bounds)/2].Clone(), true
}

// splitChild splits the child under parent.entries[idx] and returns the
// parent as rewritten, a clone: parent itself may be the index level's.
// The parent is guaranteed to be on the magnetic disk: "all parts of the
// index which refer to [the current database] must be on an erasable
// medium" (§1). Split work — including the WORM append of a time split —
// runs under the owning shard's write latch, so its duration is
// accumulated into splitNanos.
func (t *Tree) splitChild(parent *node, idx int, forced bool) (_ *node, err error) {
	defer t.endSplit(time.Now(), t.writes, &err)
	child, err := t.readNode(parent.entries[idx].child)
	if err != nil {
		return nil, err
	}
	replacement, err := t.splitNode(child, forced)
	if err != nil {
		return nil, err
	}
	p := parent.clone()
	p.entries = slices.Replace(p.entries, idx, idx+1, replacement...)
	sortEntries(p.entries)
	return p, t.writeCurrent(p)
}

// endSplit ends a split begun at start, when writes page writes had
// landed: it adds the split's time to splitNanos, and damages the tree
// (ErrDamaged) if the split failed after one of its own writes landed.
func (t *Tree) endSplit(start time.Time, writes uint64, err *error) {
	t.splitNanos += uint64(time.Since(start))
	if *err != nil && t.writes != writes && t.damaged == nil {
		t.damaged = fmt.Errorf("%w: %w", ErrDamaged, *err)
		*err = t.damaged
	}
}

// splitRoot splits the root and grows the tree by one level: the new root
// is a fresh index node over the pieces.
func (t *Tree) splitRoot() (err error) {
	defer t.endSplit(time.Now(), t.writes, &err)
	root, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	entries, err := t.splitNode(root, false)
	if err != nil {
		return err
	}
	page, err := t.mag.Alloc()
	if err != nil {
		return err
	}
	newRoot := &node{
		addr:    storage.Addr{Kind: storage.KindMagnetic, Off: page},
		rect:    record.WholeSpace(),
		leaf:    false,
		entries: entries,
	}
	sortEntries(newRoot.entries)
	if err := t.writeCurrent(newRoot); err != nil {
		return err
	}
	t.root = newRoot.addr
	t.stats.RootSplits++
	t.stats.CurrentNodes++
	t.stats.Height++
	return nil
}
