// Package secondary implements the secondary indexes of §3.6: each
// secondary index is itself a Time-Split B-tree whose records are
// <timestamp, secondary key, primary key> triples. An entry inherits the
// timestamp of the primary record change that caused it: the transaction
// making the change writes the entries Transition names, at its own
// commit time. The index spans the historical and current databases
// exactly like the primary index, and primary-data splits never touch it.
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
)

// TreeConfig returns the configuration of a secondary index's tree for
// primary records bounded by cfg: composite keys are skey + 0x00 + pkey,
// so the key bound widens.
func TreeConfig(cfg core.Config) core.Config {
	if cfg.MaxKeySize == 0 {
		cfg.MaxKeySize = 64
	}
	cfg.MaxKeySize = 2*cfg.MaxKeySize + 1
	return cfg
}

// Transition returns the keys in index tree t that record the primary
// key pkey moving from secondary key oldSkey to newSkey, nil meaning no
// entry: retire, which takes a tombstone, and post, which takes a
// version whose value is pkey; neither when the secondary key is
// unchanged. A key holding 0x00 (the separator) is refused, and so is a
// new entry t's size bounds refuse.
func Transition(t *core.Tree, pkey, oldSkey, newSkey record.Key) (retire, post record.Key, err error) {
	if oldSkey != nil && newSkey != nil && oldSkey.Equal(newSkey) {
		return nil, nil, nil
	}
	if oldSkey != nil {
		if retire, err = composite(oldSkey, pkey); err != nil {
			return nil, nil, err
		}
	}
	if newSkey != nil {
		if post, err = composite(newSkey, pkey); err != nil {
			return nil, nil, err
		}
		if err := t.CheckSizes(len(post), len(pkey)); err != nil {
			return nil, nil, err
		}
	}
	return retire, post, nil
}

// composite builds the index record key: secondary key, a 0x00
// separator, then primary key, so that entries order by secondary key
// first. The secondary key must not contain 0x00.
func composite(skey, pkey record.Key) (record.Key, error) {
	if bytes.IndexByte(skey, 0) >= 0 {
		return nil, fmt.Errorf("secondary: secondary key %q contains NUL", skey)
	}
	out := make(record.Key, 0, len(skey)+1+len(pkey))
	out = append(out, skey...)
	out = append(out, 0)
	out = append(out, pkey...)
	return out, nil
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
// at in index tree t, sorted. It scans only the composite-key range of
// skey, so the node reads stay proportional to the number of matches.
func LookupAsOf(t *core.Tree, skey record.Key, at record.Timestamp) ([]record.Key, error) {
	low, high, err := skeyRange(skey)
	if err != nil {
		return nil, err
	}
	vs, err := t.ScanAsOf(at, low, high)
	if err != nil {
		return nil, err
	}
	out := make([]record.Key, len(vs))
	for i, v := range vs {
		out[i] = v.Value
	}
	return out, nil
}
