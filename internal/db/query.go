package db

import (
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// queryExec binds a read transaction to the one engine extension the
// query layer can exploit: secondary lookups (index joins).
type queryExec struct {
	d *DB
	r *txn.ReadTxn
}

func (q queryExec) Cursor(low record.Key, high record.Bound, opts txn.ScanOptions) *txn.Cursor {
	return q.r.Cursor(low, high, opts)
}

func (q queryExec) Timestamp() record.Timestamp { return q.r.Timestamp() }

func (q queryExec) LookupSecondary(index string, skey record.Key, at record.Timestamp) ([]record.Key, error) {
	return q.d.LookupSecondary(index, skey, at)
}

// Query compiles and runs a composed operator tree (see internal/query)
// at a fresh read snapshot: the builder API of the temporal query
// engine.
//
//	op, err := d.Query(query.Scan(nil, record.InfiniteBound()).
//		Filter(lo, hi).
//		GroupBy())
//	defer op.Close()
//	for op.Next() { use(op.Row()) }
//
// Operators stream under the cursor latch discipline — no latch held
// between Next calls — and Close releases their cursors.
func (d *DB) Query(spec *query.Spec) (query.Operator, error) {
	return d.QueryAt(d.Now(), spec)
}

// QueryAt runs spec against the snapshot at `at` (sources with their
// own At or From/To windows override it per scan) — the time-travel
// form of Query.
func (d *DB) QueryAt(at record.Timestamp, spec *query.Spec) (query.Operator, error) {
	return query.Compile(spec, queryExec{d: d, r: d.ReadAt(at)})
}

var (
	_ query.Source          = queryExec{}
	_ query.SecondaryLookup = queryExec{}
)
