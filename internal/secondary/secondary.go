// Package secondary implements the secondary indexes of §3.6: each
// secondary index is itself a Time-Split B-tree whose records are
// <timestamp, secondary key, primary key> triples. An entry inherits the
// timestamp of the primary record change that caused it; the index spans
// the historical and current databases exactly like the primary index, and
// primary-data splits never touch it.
//
// Queries that only count or enumerate matches "can be answered using only
// the secondary time-split B-tree"; fetching records goes back through the
// primary index by <primary key, timestamp>.
package secondary

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
)

// Index is one secondary index over a primary TSB-tree's records.
type Index struct {
	name string
	tree *core.Tree
}

// New creates a secondary index with its own TSB-tree on the given
// devices.
func New(name string, mag storage.PageStore, worm storage.WORMDevice, cfg core.Config) (*Index, error) {
	// Composite keys are skey + 0x00 + pkey; widen the key bound.
	if cfg.MaxKeySize == 0 {
		cfg.MaxKeySize = 64
	}
	cfg.MaxKeySize = 2*cfg.MaxKeySize + 1
	tree, err := core.New(mag, worm, cfg)
	if err != nil {
		return nil, err
	}
	return &Index{name: name, tree: tree}, nil
}

// Name returns the index's name.
func (ix *Index) Name() string { return ix.name }

// Image captures the index's tree metadata for checkpointing.
func (ix *Index) Image() core.TreeImage { return ix.tree.Image() }

// FromImage reattaches a secondary index to its devices.
func FromImage(name string, mag storage.PageStore, worm storage.WORMDevice, img core.TreeImage) (*Index, error) {
	tree, err := core.FromImage(mag, worm, img)
	if err != nil {
		return nil, err
	}
	return &Index{name: name, tree: tree}, nil
}

// Tree exposes the underlying TSB-tree (for stats and invariant checks).
func (ix *Index) Tree() *core.Tree { return ix.tree }

// CheckEntry reports the error Apply returns for posting skey for the
// primary key pkey, short of a device error, without touching the tree
// or allocating: composite's NUL rule, then the tree's size bounds for
// the entry's key and its value, pkey.
func (ix *Index) CheckEntry(skey, pkey record.Key) error {
	if err := checkSkey(skey); err != nil {
		return err
	}
	return ix.tree.CheckSizes(len(skey)+1+len(pkey), len(pkey))
}

// checkSkey refuses a secondary key holding 0x00, the separator.
func checkSkey(skey record.Key) error {
	if bytes.IndexByte(skey, 0) >= 0 {
		return fmt.Errorf("secondary: secondary key %q contains NUL", skey)
	}
	return nil
}

// composite builds the index record key: secondary key, a 0x00 separator,
// then primary key, so that entries order by secondary key first. The
// secondary key must not contain 0x00.
func composite(skey, pkey record.Key) (record.Key, error) {
	if err := checkSkey(skey); err != nil {
		return nil, err
	}
	out := make(record.Key, 0, len(skey)+1+len(pkey))
	out = append(out, skey...)
	out = append(out, 0)
	out = append(out, pkey...)
	return out, nil
}

// Apply records a primary-record change: at commitTime, the record at pkey
// stopped having oldSkey (if oldOK) and started having newSkey (unless
// removed). Both transitions are versions in the secondary tree, stamped
// with the inherited timestamp.
//
//tsb:io -- inserting the transition can time-split and burn inline
func (ix *Index) Apply(commitTime record.Timestamp, pkey record.Key, oldSkey record.Key, oldOK bool, newSkey record.Key, removed bool) error {
	sameKey := oldOK && !removed && oldSkey.Equal(newSkey)
	if oldOK && !sameKey {
		ck, err := composite(oldSkey, pkey)
		if err != nil {
			return err
		}
		err = ix.tree.Insert(record.Version{Key: ck, Time: commitTime, Tombstone: true})
		if err != nil {
			return fmt.Errorf("secondary %s: retire old entry: %w", ix.name, err)
		}
	}
	if removed || sameKey {
		return nil
	}
	ck, err := composite(newSkey, pkey)
	if err != nil {
		return err
	}
	err = ix.tree.Insert(record.Version{Key: ck, Time: commitTime, Value: pkey.Clone()})
	if err != nil {
		return fmt.Errorf("secondary %s: post new entry: %w", ix.name, err)
	}
	return nil
}

// skeyRange returns the key range covering every composite key with the
// given secondary key.
func skeyRange(skey record.Key) (record.Key, record.Bound, error) {
	low, err := composite(skey, nil)
	if err != nil {
		return nil, record.Bound{}, err
	}
	high := make(record.Key, len(skey)+1)
	copy(high, skey)
	high[len(skey)] = 1 // smallest key after every skey+0x00+... composite
	return low, record.KeyBound(high), nil
}

// LookupAsOf returns the primary keys whose record carried skey at time
// at, sorted. It scans only the composite-key range of skey, so the node
// reads stay proportional to the number of matches.
func (ix *Index) LookupAsOf(skey record.Key, at record.Timestamp) ([]record.Key, error) {
	low, high, err := skeyRange(skey)
	if err != nil {
		return nil, err
	}
	vs, err := ix.tree.ScanAsOf(at, low, high)
	if err != nil {
		return nil, err
	}
	out := make([]record.Key, len(vs))
	for i, v := range vs {
		out[i] = v.Value
	}
	return out, nil
}
