package txn

import (
	"sync"

	"repro/internal/core"
	"repro/internal/record"
)

// latchedStore makes a bare *core.Tree safe for the concurrent tests of
// this package by wrapping every Store operation in one reader/writer
// latch: the single-shard degenerate case of the db layer's shard router,
// which is the only production Store.
type latchedStore struct {
	mu sync.RWMutex
	s  Store
}

func newLatchedStore(s Store) *latchedStore { return &latchedStore{s: s} }

func (l *latchedStore) Insert(v record.Version) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Insert(v)
}

func (l *latchedStore) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.CommitKey(k, txnID, commitTime)
}

func (l *latchedStore) AbortKey(k record.Key, txnID uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.AbortKey(k, txnID)
}

func (l *latchedStore) Get(k record.Key) (record.Version, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.Get(k)
}

func (l *latchedStore) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.GetAsOf(k, at)
}

func (l *latchedStore) History(k record.Key) ([]record.Version, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.History(k)
}

func (l *latchedStore) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error) {
	return l.page(func() (core.Page, error) { return l.s.ScanPageAsOf(at, low, high, reverse) })
}

func (l *latchedStore) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp) (core.Page, error) {
	return l.page(func() (core.Page, error) { return l.s.ScanRangePage(low, high, from, to) })
}

// page runs read under the read latch and wraps the page's Resume the
// same way, as the Store contract requires of a latching store.
func (l *latchedStore) page(read func() (core.Page, error)) (core.Page, error) {
	l.mu.RLock()
	p, err := read()
	l.mu.RUnlock()
	if resume := p.Resume; resume != nil {
		p.Resume = func() (core.Page, error) { return l.page(resume) }
	}
	return p, err
}

var _ Store = (*latchedStore)(nil)
