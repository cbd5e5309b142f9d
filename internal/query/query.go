// Package query is the temporal query engine: a small layer of
// composable streaming operators over the cursor machinery, answering
// the paper's query classes (§2.5 — version by key and time, snapshots,
// all versions of a record, ranges of both) without materializing
// intermediate results.
//
// An operator tree is described by a Spec (a serializable plan — the
// wire protocol ships it verbatim) and compiled against a Source into a
// pipeline of Operators. Rows stream in key order: every source yields
// keys ascending (descending when Reverse), every transform preserves
// that order, and MergeJoin exploits it to join two streams with O(1)
// memory per key group. Sources:
//
//   - Scan: the snapshot of a key range at one timestamp, or — with a
//     From/To window — every version of the range valid in the window,
//     in (key, time) order.
//   - History: one key's committed version history (a version-cursor; a
//     changefeed over a single record).
//   - Diff: the keys whose visible state differs between two times, as
//     streaming change rows — the change-cursor form of core.Tree.Diff,
//     and the changefeed primitive (poll Diff(lastSeen, now) to
//     subscribe).
//
// Transforms: Filter (a key-range predicate is pushed down into the
// source's scan window at compile time, so the cursor never reads pages
// outside it; value predicates stream), Project, MergeJoin,
// JoinSecondary (a secondary-index lookup merge-joined against the
// primary stream), GroupBy (per-key aggregation over version history),
// and Limit.
//
// # Latch discipline
//
// Operators add no latches and start no goroutines of their own. All
// engine access goes through cursors, which hold no latch between Next
// calls and at most one shard latch during a fill; a paused or abandoned
// operator tree therefore never blocks a writer, and an idle one pins
// only the heap its cursors and buffered rows hold.
package query

import (
	"errors"

	"repro/internal/record"
	"repro/internal/txn"
)

// Row is the unit that flows between operators.
//
//   - Scan/History rows carry one version in Versions.
//   - MergeJoin rows carry the left row's versions followed by the
//     right's.
//   - Diff rows carry [before, after] (each present only when the
//     matching flag is set).
//   - GroupBy rows carry the group's first and last version (one entry
//     when they coincide) and the group's version count in Count.
type Row struct {
	Key      record.Key
	Versions []record.Version
	// Count is the number of versions aggregated into the row (GroupBy
	// rows only; zero elsewhere).
	Count uint64
	// HasBefore/HasAfter qualify Diff rows: whether the key existed at
	// the window's start and end.
	HasBefore bool
	HasAfter  bool
}

// Operator is a streaming row producer: the cursor contract lifted to
// rows. Like a Cursor, an Operator holds no latch between Next calls,
// must be confined to one goroutine at a time, and may be abandoned at
// any point — Close makes early termination explicit and releases the
// pipeline's cursors.
type Operator interface {
	Next() bool
	Row() Row
	Err() error
	Close() error
}

// Source is the engine surface a query executes against: the read side
// of a transaction. *txn.ReadTxn satisfies it; the db layer's Query
// binds one together with the optional extension below.
type Source interface {
	Cursor(low record.Key, high record.Bound, opts txn.ScanOptions) *txn.Cursor
	Timestamp() record.Timestamp
}

// SecondaryLookup is the optional Source extension JoinSecondary needs:
// the primary keys carrying a secondary key at a timestamp, sorted.
type SecondaryLookup interface {
	LookupSecondary(index string, skey record.Key, at record.Timestamp) ([]record.Key, error)
}

// ErrBadSpec wraps every spec validation failure: the typed bad-request
// the server maps malformed operator trees to.
var ErrBadSpec = errors.New("query: invalid spec")
