package server

import (
	"sync"
	"time"

	"repro/internal/query"
)

// maxSessionCursors bounds how many cursors one session may hold open:
// each pins an operator pipeline's heap for up to a full lease, so
// unbounded, one connection could pin unbounded memory. 64 is the
// default pipelining Window.
const maxSessionCursors = 64

// cursorState is everything the server remembers about a client's open
// cursor between fetches: its owner, its lease, and its live operator
// pipeline (a plain range scan is the one-operator pipeline). The
// operator contract makes keeping it harmless to writers — an idle
// operator holds no latch — but it does pin heap, so every path that
// drops the table entry must also Close the operator. Close runs
// outside the table mutex, which guards the table only.
type cursorState struct {
	sess    uint64
	expires time.Time
	busy    bool // checked out by a fetch; janitor must not reap
	op      query.Operator
}

// cursorTable owns every open server-side cursor. Its mutex is a leaf,
// held only for map bookkeeping — never across a DB call (fetches check
// a cursor out, scan with no table lock held, and check it back in) and
// never across an operator Close.
type cursorTable struct {
	mu        sync.Mutex //tsb:latch level=7 name=server-cursors
	next      uint64
	open      map[uint64]*cursorState
	perSess   map[uint64]int // open cursors per session, for maxSessionCursors
	reclaimed uint64
}

func (t *cursorTable) init() {
	t.open = make(map[uint64]*cursorState)
	t.perSess = make(map[uint64]int)
}

// hasRoom reports whether sess may open another cursor. Only the
// session's own executor goroutine opens cursors for it, so the answer
// cannot turn false between this check and the add that follows.
func (t *cursorTable) hasRoom(sess uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perSess[sess] < maxSessionCursors
}

func (t *cursorTable) add(cu *cursorState) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.open[id] = cu
	t.perSess[cu.sess]++
	return id
}

// drop deletes one table entry and its session count. Caller holds mu
// and owns closing the operator afterwards.
func (t *cursorTable) drop(id uint64, cu *cursorState) {
	delete(t.open, id)
	if t.perSess[cu.sess]--; t.perSess[cu.sess] <= 0 {
		delete(t.perSess, cu.sess)
	}
}

// checkout hands the cursor to a fetch if it exists, belongs to sess,
// and is not already checked out. The lease renews immediately so the
// janitor cannot reap a cursor whose fetch is running long.
func (t *cursorTable) checkout(id, sess uint64, renewTo time.Time) (*cursorState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cu, found := t.open[id]
	if !found || cu.sess != sess || cu.busy {
		return nil, false
	}
	cu.busy = true
	cu.expires = renewTo
	return cu, true
}

// checkin returns the cursor after a fetch; done removes it. The caller
// owns closing cu.op on done — it already holds the operator via
// checkout.
func (t *cursorTable) checkin(id uint64, cu *cursorState, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cu.busy = false
	if done {
		t.drop(id, cu)
	}
}

// reap drops every cursor pred selects (pred runs under the mutex) and
// closes their operators after releasing it.
func (t *cursorTable) reap(pred func(*cursorState) bool) {
	t.mu.Lock()
	var dropped []*cursorState
	for id, cu := range t.open {
		if pred(cu) {
			t.drop(id, cu)
			dropped = append(dropped, cu)
		}
	}
	t.mu.Unlock()
	for _, cu := range dropped {
		closeOp(cu)
	}
}

// remove closes a cursor if it exists and belongs to sess.
func (t *cursorTable) remove(id, sess uint64) {
	t.mu.Lock()
	cu, found := t.open[id]
	if !found || cu.sess != sess {
		t.mu.Unlock()
		return
	}
	t.drop(id, cu)
	t.mu.Unlock()
	closeOp(cu)
}

// removeSession reaps every cursor a closing session left behind.
func (t *cursorTable) removeSession(sess uint64) {
	t.reap(func(cu *cursorState) bool { return cu.sess == sess })
}

// reapExpired removes cursors whose lease lapsed — the abandoned-scan
// backstop. In-flight fetches (busy) are skipped; their checkout
// already renewed the lease.
func (t *cursorTable) reapExpired(now time.Time) {
	t.reap(func(cu *cursorState) bool {
		if cu.busy || !now.After(cu.expires) {
			return false
		}
		t.reclaimed++
		return true
	})
}

func (t *cursorTable) clear() {
	t.reap(func(*cursorState) bool { return true })
}

func (t *cursorTable) counts() (open int, reclaimed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open), t.reclaimed
}

// closeOp releases a cursor's pipeline. Never called with the table
// mutex held.
func closeOp(cu *cursorState) {
	if cu.op != nil {
		_ = cu.op.Close()
		cu.op = nil
	}
}
