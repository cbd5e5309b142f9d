package client

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server/wire"
)

// QueryScan is the client iterator over a server-side cursor: an
// operator tree (scan, filter, join, group-by, diff, history —
// internal/query) executing on the server, streamed back in row
// batches. Between batches the server's pipeline idles latch-free; an
// abandoned QueryScan is reclaimed by the cursor lease. It is the one
// range-read iterator: Scan is a thin view of it.
type QueryScan struct {
	c     *Client
	id    uint64
	batch uint64
	buf   []query.Row
	pos   int
	done  bool
	err   error
}

// QueryOptions shapes a QueryScan.
type QueryOptions struct {
	BatchSize uint64 // rows per fetch frame (0 = server default)
}

// QueryScan ships spec to the server, compiles it against the
// session's snapshot and namespace, and returns the row iterator.
// Specs holding a Where closure cannot travel and are refused locally.
func (c *Client) QueryScan(spec *query.Spec, opts QueryOptions) (*QueryScan, error) {
	req, err := wire.AppendOpenQuery(nil, spec)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	d := record.NewDecoder(body)
	id := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("client: short open-query reply: %w", err)
	}
	return &QueryScan{c: c, id: id, batch: opts.BatchSize}, nil
}

// Next advances to the next row, fetching the next batch when the
// local one is drained. It returns false at the end of the stream or
// on error (check Err).
func (q *QueryScan) Next() bool {
	if q.err != nil {
		return false
	}
	for q.pos >= len(q.buf) {
		if q.done {
			return false
		}
		if !q.fetch() {
			return false
		}
	}
	q.pos++
	return true
}

func (q *QueryScan) fetch() bool {
	body, err := q.c.do(wire.AppendQueryFetch(nil, q.id, q.batch))
	if err != nil {
		q.err = err
		return false
	}
	d := record.NewDecoder(body)
	q.buf = q.buf[:0]
	q.pos = 0
	for d.Uvarint() == 1 {
		r, rerr := wire.DecodeRow(d)
		if rerr != nil {
			q.err = fmt.Errorf("client: bad query row: %w", rerr)
			return false
		}
		q.buf = append(q.buf, r)
	}
	q.done = d.Bool()
	if err := d.Err(); err != nil {
		q.err = fmt.Errorf("client: short query-fetch reply: %w", err)
		return false
	}
	return true
}

// Row returns the row Next advanced to.
func (q *QueryScan) Row() query.Row { return q.buf[q.pos-1] }

// Err returns the scan's terminal error, typed *wire.Error for server
// refusals.
func (q *QueryScan) Err() error { return q.err }

// Close releases the server-side query cursor (and its operator
// pipeline); safe after exhaustion — the server already removed it.
func (q *QueryScan) Close() error {
	if q.done {
		return nil
	}
	e := record.NewEncoder(make([]byte, 0, 12))
	e.Byte(wire.OpCloseCursor)
	e.Uvarint(q.id)
	_, err := q.c.do(e.Bytes())
	return err
}

// Collect drains the scan into a slice and closes it.
func (q *QueryScan) Collect() ([]query.Row, error) {
	var out []query.Row
	for q.Next() {
		out = append(out, q.Row())
	}
	if q.err != nil {
		return out, q.err
	}
	return out, q.Close()
}

// Scan is the version-at-a-time view of a QueryScan over a plain range
// scan, whose rows each carry exactly one version. Next, Err and Close
// are the QueryScan's.
type Scan struct{ *QueryScan }

// ScanOptions shapes a Scan.
type ScanOptions struct {
	At        record.Timestamp // snapshot (0 = session snapshot)
	Limit     uint64           // total versions (0 = unlimited)
	Reverse   bool
	BatchSize uint64 // versions per fetch frame (0 = server default)
}

// Scan opens a server-side cursor over [low, high) of the session's
// namespace: QueryScan over query.Scan(low, high). Close it when done
// early; an abandoned Scan is reclaimed by the server's cursor lease.
func (c *Client) Scan(low record.Key, high record.Bound, opts ScanOptions) (*Scan, error) {
	spec := query.Scan(low, high)
	spec.At, spec.Reverse = opts.At, opts.Reverse
	if opts.Limit > 0 {
		spec = spec.WithLimit(opts.Limit)
	}
	q, err := c.QueryScan(spec, QueryOptions{BatchSize: opts.BatchSize})
	if err != nil {
		return nil, err
	}
	return &Scan{q}, nil
}

// Version returns the version Next advanced to.
func (s *Scan) Version() record.Version { return s.Row().Versions[0] }

// Collect drains the scan into a slice and closes it.
func (s *Scan) Collect() ([]record.Version, error) {
	rows, err := s.QueryScan.Collect()
	var out []record.Version
	for _, r := range rows {
		out = append(out, r.Versions[0])
	}
	return out, err
}
