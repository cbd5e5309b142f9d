// Package core implements the Time-Split B-tree of Lomet & Salzberg,
// "Access Methods for Multiversion Data" (SIGMOD 1989, §3) — the primary
// contribution of the paper.
//
// The TSB-tree is a single integrated index over a versioned, timestamped
// rollback database with a non-deletion policy. Current data lives in
// erasable nodes on a magnetic disk; historical data migrates
// incrementally, one node at a time, to consolidated variable-length nodes
// appended to a write-once device. Each node is responsible for a
// rectangle in key×time space; splits refine rectangles either by key
// (B+-tree style, in place, §3.1) or by a chosen split time (§3.3), in
// which case the older half is migrated. Index nodes obey the Index Node
// Keyspace Split Rule of §3.5, whose rule 4 duplicates references to
// historical nodes, making the structure a DAG in which only historical
// nodes have more than one parent.
//
// Uncommitted versions carry no timestamp; they are never written to the
// historical database during a time split and can always be erased (§4).
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/storage"
)

// ErrNoPending is returned by AbortKey when the transaction has no
// pending version of the key: already erased, or never inserted.
var ErrNoPending = errors.New("core: no pending version")

// ErrLockConflict is returned by Insert when another transaction's pending
// version of the key — its write lock (§4) — is in the tree.
var ErrLockConflict = errors.New("core: key locked by another transaction")

// SplitTimeChoice selects the time value used for a data-node time split.
// The WOBT is forced to split at the current time; the TSB-tree may choose
// "any convenient time more recent than the last time split for the node"
// (§3.3), trading redundancy against current-node content.
type SplitTimeChoice int

const (
	// SplitAtNow splits at the current time, as the WOBT must. Every
	// version alive now is copied into the current node; all versions
	// are migrated.
	SplitAtNow SplitTimeChoice = iota
	// SplitAtLastUpdate splits at the time of the last update of
	// existing data, so insertions that happened after the last update
	// are not carried into the historical node (§3.3).
	SplitAtLastUpdate
	// SplitAtMedian splits at the median committed timestamp in the
	// node, pushing roughly half the versions out while keeping
	// redundancy moderate.
	SplitAtMedian
)

// String names the choice.
func (c SplitTimeChoice) String() string {
	switch c {
	case SplitAtNow:
		return "now"
	case SplitAtLastUpdate:
		return "last-update"
	case SplitAtMedian:
		return "median"
	default:
		return fmt.Sprintf("SplitTimeChoice(%d)", int(c))
	}
}

// Policy parameterizes the splitting decisions of §3.2: whether an
// overflowing node splits by time or by key space, and at which time value.
// The paper frames the choice as minimizing CS = SpaceM·CM + SpaceO·CO:
// more time splits lower magnetic-disk use; more key splits lower total
// space and redundancy.
type Policy struct {
	// KeySplitFraction is the threshold on the fraction of a data
	// node's contents that is current: above it the node key splits,
	// at or below it the node time splits. 0 prefers key splits
	// whenever legal (minimum total space); 1 prefers time splits
	// whenever useful (minimum magnetic space). The boundary conditions
	// of §3.2 always apply: a node whose versions are all current must
	// key split, and a node with a single distinct key must time split.
	KeySplitFraction float64
	// SplitTime selects the time value for data-node time splits.
	SplitTime SplitTimeChoice
	// IndexKeySplitFraction plays the role of KeySplitFraction for
	// index nodes: the fraction of entries referencing current nodes
	// above which the node splits by key space rather than by time.
	IndexKeySplitFraction float64
}

// Named policies used throughout the experiments.
var (
	// PolicyWOBTLike mimics the WOBT within the TSB structure: time
	// splits at the current time with a balanced threshold.
	PolicyWOBTLike = Policy{KeySplitFraction: 0.5, SplitTime: SplitAtNow, IndexKeySplitFraction: 0.5}
	// PolicyLastUpdate is the paper's recommended refinement: time
	// splits at the last update time.
	PolicyLastUpdate = Policy{KeySplitFraction: 0.5, SplitTime: SplitAtLastUpdate, IndexKeySplitFraction: 0.5}
	// PolicyKeyPref minimizes total space: key split whenever legal.
	PolicyKeyPref = Policy{KeySplitFraction: 0.0, SplitTime: SplitAtLastUpdate, IndexKeySplitFraction: 0.0}
	// PolicyTimePref minimizes current (magnetic) space: time split
	// whenever useful.
	PolicyTimePref = Policy{KeySplitFraction: 1.0, SplitTime: SplitAtNow, IndexKeySplitFraction: 1.0}
)

// Config configures a TSB-tree.
type Config struct {
	// Policy holds the splitting decisions. The zero value is
	// PolicyWOBTLike.
	Policy Policy
	// MaxKeySize bounds key length so index entries have a known
	// maximum encoded size (default 64 bytes).
	MaxKeySize int
	// MaxValueSize bounds record values (default LeafCapacity/8).
	MaxValueSize int
	// LeafCapacity is the logical size, in encoded bytes, at which a
	// data node splits. Defaults to the magnetic page size; tests and
	// figure reproductions set it small to model the paper's
	// four-record nodes. Never exceeds the page size.
	LeafCapacity int
	// IndexCapacity is the logical size at which an index node splits.
	// Defaults to the magnetic page size.
	IndexCapacity int
}

func (c *Config) withDefaults(pageSize int) Config {
	out := *c
	if out.MaxKeySize == 0 {
		out.MaxKeySize = 64
	}
	if out.LeafCapacity == 0 || out.LeafCapacity > pageSize {
		out.LeafCapacity = pageSize
	}
	if out.IndexCapacity == 0 || out.IndexCapacity > pageSize {
		out.IndexCapacity = pageSize
	}
	if out.MaxValueSize == 0 {
		out.MaxValueSize = out.LeafCapacity / 8
	}
	zero := Policy{}
	if out.Policy == zero {
		out.Policy = PolicyWOBTLike
	}
	return out
}

// Stats counts the structural events of a TSB-tree's life. The redundancy
// counters are the measures the paper's evaluation plan names in §5.
type Stats struct {
	Inserts  uint64
	Commits  uint64
	Aborts   uint64
	Deletes  uint64 // tombstone insertions (counted within Inserts too)
	Restamps uint64 // pending versions stamped at commit

	LeafTimeSplits    uint64
	LeafKeySplits     uint64
	LeafTimeKeySplits uint64 // time split immediately followed by key split
	IndexTimeSplits   uint64 // local index time splits (§3.5, Figure 8)
	IndexKeySplits    uint64
	RootSplits        uint64
	ForcedTimeSplits  uint64 // splits of leaves marked per §3.5's optimization
	MarkedLeaves      uint64 // leaves marked "time split at next opportunity" (Figure 9)

	// RedundantVersions counts versions copied into the current node by
	// clause 3 of the Time-Split Rule: records that persist through the
	// split time exist in both the historical and the current node.
	RedundantVersions uint64
	// RedundantIndexEntries counts index entries duplicated by rule 4 of
	// the Index Node Keyspace Split Rule or clipped into both halves of
	// a local index time split; all of them reference historical nodes.
	RedundantIndexEntries uint64

	VersionsMigrated uint64 // versions written to the historical database
	BytesMigrated    uint64
	HistoricalNodes  uint64 // nodes appended to the WORM
	CurrentNodes     uint64 // live magnetic nodes (leaf + index)
	Height           int
}

// Merge returns the element-wise sum of two Stats snapshots (Height is
// the maximum): the aggregate view over the trees of a sharded engine.
func (s Stats) Merge(o Stats) Stats {
	out := s
	out.Inserts += o.Inserts
	out.Commits += o.Commits
	out.Aborts += o.Aborts
	out.Deletes += o.Deletes
	out.Restamps += o.Restamps
	out.LeafTimeSplits += o.LeafTimeSplits
	out.LeafKeySplits += o.LeafKeySplits
	out.LeafTimeKeySplits += o.LeafTimeKeySplits
	out.IndexTimeSplits += o.IndexTimeSplits
	out.IndexKeySplits += o.IndexKeySplits
	out.RootSplits += o.RootSplits
	out.ForcedTimeSplits += o.ForcedTimeSplits
	out.MarkedLeaves += o.MarkedLeaves
	out.RedundantVersions += o.RedundantVersions
	out.RedundantIndexEntries += o.RedundantIndexEntries
	out.VersionsMigrated += o.VersionsMigrated
	out.BytesMigrated += o.BytesMigrated
	out.HistoricalNodes += o.HistoricalNodes
	out.CurrentNodes += o.CurrentNodes
	if o.Height > out.Height {
		out.Height = o.Height
	}
	return out
}

// Tree is a Time-Split B-tree. Current nodes live on a magnetic
// storage.PageStore; historical nodes are appended to a WORM device.
// It is not safe for concurrent use; the transaction layer serializes
// access (read-only transactions read versioned data without locks, but
// the tree structure itself is protected above this package).
type Tree struct {
	mag    storage.PageStore
	worm   storage.WORMDevice
	cfg    Config
	policy Policy

	root     storage.Addr
	now      record.Timestamp
	stats    Stats
	marked   map[uint64]bool // magnetic leaf pages marked for forced time split
	entryCap int             // conservative bound on one encoded index entry

	// pending maps each key with a pending version to its writer: the
	// write locks of §4. A tree reattached from an image starts with none,
	// until recovery has erased the image's pending versions.
	pending map[string]uint64

	// splitNanos accumulates time spent in splitChild/splitRoot — work
	// performed under the shard write latch. It lives outside Stats so
	// it never reaches a TreeImage.
	splitNanos uint64

	// indexEpoch counts index-node writes. Every split and every root
	// change writes an index node, so a scan page's memo of the index
	// nodes it decoded stays exact while the epoch is unchanged (see
	// pathMemo).
	indexEpoch uint64

	// nodeDecodes and nodeEncodes count node accesses, the paper's cost
	// unit (§3.2): every node parsed from a device, and every node
	// serialized, sizing included. Reads run concurrently under shard
	// read latches, so they are atomic; like splitNanos they stay out of
	// Stats and so out of every TreeImage.
	nodeDecodes obs.Counter
	nodeEncodes obs.Counter
}

// SplitLatchNanos returns the cumulative time spent splitting nodes,
// including the inline WORM append of every time split — work that runs
// under the owning shard's write latch.
func (t *Tree) SplitLatchNanos() uint64 { return t.splitNanos }

// RegisterMetrics names the tree's node-access counters in r.
func (t *Tree) RegisterMetrics(r *obs.Registry, labels ...obs.Label) {
	r.RegisterCounter("tsb_core_node_decodes_total", "TSB-tree nodes decoded from a device page or WORM run", &t.nodeDecodes, labels...)
	r.RegisterCounter("tsb_core_node_encodes_total", "TSB-tree nodes encoded, to write or to size them", &t.nodeEncodes, labels...)
}

// New creates an empty TSB-tree with a single empty leaf as root.
func New(mag storage.PageStore, worm storage.WORMDevice, cfg Config) (*Tree, error) {
	c := cfg.withDefaults(mag.PageSize())
	t := &Tree{
		mag:     mag,
		worm:    worm,
		cfg:     c,
		policy:  c.Policy,
		marked:  make(map[uint64]bool),
		pending: make(map[string]uint64),
	}
	// Bound on an encoded index entry: rect (two keys + bounds + two
	// times) + child address + framing.
	t.entryCap = 2*c.MaxKeySize + 64
	if t.entryCap*4 > c.IndexCapacity {
		return nil, fmt.Errorf("core: index capacity %d too small for MaxKeySize %d",
			c.IndexCapacity, c.MaxKeySize)
	}
	rootNode := &node{
		rect: record.WholeSpace(),
		leaf: true,
	}
	page, err := mag.Alloc()
	if err != nil {
		return nil, err
	}
	rootNode.addr = storage.Addr{Kind: storage.KindMagnetic, Off: page}
	if err := t.writeCurrent(rootNode); err != nil {
		return nil, err
	}
	t.root = rootNode.addr
	t.stats.CurrentNodes = 1
	t.stats.Height = 1
	return t, nil
}

// Root returns the address of the root node.
func (t *Tree) Root() storage.Addr { return t.root }

// Now returns the largest committed timestamp the tree has seen.
func (t *Tree) Now() record.Timestamp { return t.now }

// Stats returns a snapshot of the structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Policy returns the tree's splitting policy.
func (t *Tree) Policy() Policy { return t.policy }

// PendingWrite names one key with a pending (uncommitted) version in the
// tree and the transaction that owns it.
type PendingWrite struct {
	Key   record.Key
	TxnID uint64
}

// PendingWrites returns every pending version's key and owner, sorted by
// key: exactly the write locks held in this tree.
func (t *Tree) PendingWrites() []PendingWrite {
	out := make([]PendingWrite, 0, len(t.pending))
	for k, id := range t.pending {
		out = append(out, PendingWrite{Key: record.Key(k), TxnID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// MarkedLeafCount returns how many leaves are currently marked for a
// forced time split at their next opportunity (§3.5's optimization).
func (t *Tree) MarkedLeafCount() int { return len(t.marked) }

func (t *Tree) validate(v record.Version) error {
	if len(v.Key) == 0 {
		return fmt.Errorf("core: empty key")
	}
	if len(v.Key) > t.cfg.MaxKeySize {
		return fmt.Errorf("core: key of %d bytes exceeds MaxKeySize %d", len(v.Key), t.cfg.MaxKeySize)
	}
	if len(v.Value) > t.cfg.MaxValueSize {
		return fmt.Errorf("core: value of %d bytes exceeds MaxValueSize %d", len(v.Value), t.cfg.MaxValueSize)
	}
	switch {
	case v.Time == record.TimePending:
		if v.TxnID == 0 {
			return fmt.Errorf("core: pending version without transaction id")
		}
	case v.Time.IsCommitted():
		if v.Time < t.now {
			return fmt.Errorf("core: timestamp %s before current time %s (rollback databases append in commit order)", v.Time, t.now)
		}
	default:
		return fmt.Errorf("core: invalid timestamp %s", v.Time)
	}
	return nil
}
