package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server/client"
	"repro/internal/txn"
)

// engine is the surface the bench drives: *db.DB, and the traced
// ladder's bench-assembled stack. Both are reached only through these
// public functions.
type engine interface {
	Update(fn func(*txn.Txn) error) error
	Get(k record.Key) (record.Version, bool, error)
	GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error)
	History(k record.Key) ([]record.Version, error)
	ReadAt(at record.Timestamp) *txn.ReadTxn
	QueryAt(at record.Timestamp, spec *query.Spec) (query.Operator, error)
	Now() record.Timestamp
}

var _ engine = (*db.DB)(nil)

// target is one client's view of the system under test: an embedded
// engine, or an RPC session.
type target interface {
	get(k record.Key) (record.Version, bool, error)
	getAsOf(k record.Key, t record.Timestamp) (record.Version, bool, error)
	put(k record.Key, val []byte) (record.Timestamp, error)
	history(k record.Key) ([]record.Version, error)
	scan(t record.Timestamp, low record.Key, limit int, into []record.Version) ([]record.Version, error)
	diff(t1, t2 record.Timestamp, low record.Key, limit int, into []query.Row) ([]query.Row, error)
	now() (record.Timestamp, error)
	// readTime is the time a get observes: TimeInfinity (the current
	// version) for an embedded engine, the pinned session snapshot for
	// an RPC session.
	readTime() record.Timestamp
	// key is how this target names key idx.
	key(idx int) record.Key
	// refresh re-pins what readTime returns; the worker calls it every
	// refreshEvery ops so an RPC session's gets stay near-current, like
	// oltp-mem's.
	refresh() error
}

type embedded struct {
	e engine
	m *model
}

func (t embedded) key(idx int) record.Key { return t.m.key(idx) }

func (t embedded) get(k record.Key) (record.Version, bool, error) { return t.e.Get(k) }
func (t embedded) getAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	return t.e.GetAsOf(k, at)
}
func (t embedded) history(k record.Key) ([]record.Version, error) { return t.e.History(k) }
func (t embedded) now() (record.Timestamp, error)                 { return t.e.Now(), nil }
func (t embedded) readTime() record.Timestamp                     { return record.TimeInfinity }
func (t embedded) refresh() error                                 { return nil }

func (t embedded) put(k record.Key, val []byte) (record.Timestamp, error) {
	var tx *txn.Txn
	err := t.e.Update(func(x *txn.Txn) error { tx = x; return x.Put(k, val) })
	if err != nil {
		return 0, err
	}
	return tx.CommitTime(), nil
}

func (t embedded) scan(at record.Timestamp, low record.Key, limit int, into []record.Version) ([]record.Version, error) {
	cur := t.e.ReadAt(at).Cursor(low, record.InfiniteBound(), db.ScanOptions{Limit: limit})
	for cur.Next() {
		into = append(into, cur.Version())
	}
	if err := cur.Err(); err != nil {
		return into, err
	}
	return into, cur.Close()
}

func (t embedded) diff(t1, t2 record.Timestamp, low record.Key, limit int, into []query.Row) ([]query.Row, error) {
	op, err := t.e.QueryAt(t1, query.Diff(low, record.InfiniteBound(), t1, t2).WithLimit(uint64(limit)))
	if err != nil {
		return into, err
	}
	for op.Next() {
		into = append(into, op.Row())
	}
	if err := op.Err(); err != nil {
		_ = op.Close() // the scan error is the one to report
		return into, err
	}
	return into, op.Close()
}

// rpc drives one session of the TCP server. Its mix has gets and puts
// only, and a session reads at its pinned snapshot.
type rpc struct{ c *client.Client }

const refreshEvery = 256

var errNoRPC = errors.New("bench: op has no RPC form in this benchmark")

func (t rpc) get(k record.Key) (record.Version, bool, error) { return t.c.Get(k) }
func (t rpc) getAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	return t.c.GetAt(k, at)
}
func (t rpc) put(k record.Key, val []byte) (record.Timestamp, error) { return t.c.Put(k, val) }
func (t rpc) history(record.Key) ([]record.Version, error)           { return nil, errNoRPC }
func (t rpc) now() (record.Timestamp, error)                         { return t.c.Ping() }
func (t rpc) readTime() record.Timestamp                             { return t.c.SessionAt() }
func (t rpc) key(idx int) record.Key                                 { return keyOf(idx) }
func (t rpc) refresh() error                                         { _, err := t.c.Refresh(); return err }
func (t rpc) scan(record.Timestamp, record.Key, int, []record.Version) ([]record.Version, error) {
	return nil, errNoRPC
}
func (t rpc) diff(record.Timestamp, record.Timestamp, record.Key, int, []query.Row) ([]query.Row, error) {
	return nil, errNoRPC
}

// Engine configurations. The in-memory one fits everything in the pool;
// the paged one keeps the issue's pool-to-data ratio (4 MiB against
// ~19 MB) and checkpoint cadence (several cycles per run) at any scale.
func memConfig() db.Config { return db.Config{Shards: 8, BufferPages: 16384} }

func pagedConfig(dir string, scale float64) db.Config {
	return db.Config{
		Shards: 8, Dir: dir, PagedDevices: true,
		BufferPages: scaled(baseDurableBufPgs, scale), PageSize: 8192, LeafCapacity: 4096,
		BackgroundMigration: true,
		CheckpointBytes:     int64(scaled(baseCheckpointByte, scale)),
	}
}

// Set-up is single-threaded and a pure function of the sizes and the
// seed, so tree shape and space counts repeat exactly.

// loadKeys creates keys [0, n) in loadTxnKeys-key transactions.
func loadKeys(e engine, m *model, n int, ack func(idx int, seq uint32, ct record.Timestamp)) error {
	var val [valueLen]byte
	for lo := 0; lo < n; lo += loadTxnKeys {
		hi := min(lo+loadTxnKeys, n)
		var tx *txn.Txn
		err := e.Update(func(x *txn.Txn) error {
			tx = x
			for i := lo; i < hi; i++ {
				fillValue(val[:], i, 0)
				if err := x.Put(m.key(i), val[:]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load keys [%d,%d): %w", lo, hi, err)
		}
		for i := lo; i < hi; i++ {
			m.ack(i, tx.CommitTime())
			if ack != nil {
				ack(i, 0, tx.CommitTime())
			}
		}
	}
	return nil
}

// updateRounds applies rounds x n hot80 updates in temporalTxnKeys-key
// transactions: the history the temporal workload reads.
func updateRounds(e engine, m *model, n, rounds int, seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 0))
	var val [valueLen]byte
	keys := make([]int, 0, temporalTxnKeys)
	for done := 0; done < rounds*n; done += len(keys) {
		keys = keys[:0]
		for len(keys) < temporalTxnKeys {
			k := hot80(r, n)
			dup := false
			for _, have := range keys {
				dup = dup || have == k
			}
			if !dup {
				keys = append(keys, k)
			}
		}
		var tx *txn.Txn
		err := e.Update(func(x *txn.Txn) error {
			tx = x
			for _, k := range keys {
				fillValue(val[:], k, uint32(m.versions(k)))
				if err := x.Put(m.key(k), val[:]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("update round: %w", err)
		}
		for _, k := range keys {
			m.ack(k, tx.CommitTime())
		}
	}
	return nil
}

// verifyHistories reads every initial key's full history and compares it
// with the model: the acknowledged versions must be an exact prefix. It
// returns the number of keys checked, the versions found beyond the
// model, and what disagreed.
func verifyHistories(e engine, m *model) (checks uint64, extra []record.Version, errs []error) {
	for idx := 0; idx < m.n; idx++ {
		checks++
		vs, err := e.History(m.key(idx))
		var more []record.Version
		if err == nil {
			more, err = m.checkHistory(idx, vs)
		}
		if err != nil {
			errs = append(errs, err)
		}
		extra = append(extra, more...)
	}
	return checks, extra, errs
}

// verifyInserted reads back every key the workers inserted.
func verifyInserted(e engine, m *model, workers []*worker) (checks uint64, errs []error) {
	for _, w := range workers {
		for j, ct := range w.inserted {
			checks++
			idx := m.n + w.id + w.clients*j
			v, ok, err := e.Get(m.key(idx))
			if err == nil && (!ok || v.Time != ct) {
				err = fmt.Errorf("inserted key %d: found=%v time=%d, acknowledged at %d", idx, ok, v.Time, ct)
			}
			if err == nil {
				if seq, okv := parseValue(v.Value, idx); !okv || seq != 0 {
					err = fmt.Errorf("inserted key %d: wrong value", idx)
				}
			}
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return checks, errs
}
