package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// LogFile is the append-only byte device the write-ahead log and the
// checkpoint writer write through: sequential writes, an explicit
// durability barrier, and a close. *os.File satisfies it directly; tests
// interpose TornLogFile to simulate crashes that tear a write in half.
type LogFile interface {
	io.Writer
	Sync() error
	Close() error
}

// TearPlan schedules a torn write across one or more LogFiles: after
// `budget` more bytes have been written through the files sharing the
// plan, the write that crosses the boundary persists only its prefix and
// fails, and every subsequent write and sync on every sharing file fails
// too — the device is dead, exactly as if the machine lost power
// mid-append. A nil *TearPlan never fires.
//
// The plan is shared so a fault point can be expressed as a single byte
// offset into the whole durable write stream even when the log rotates
// across segment files mid-test.
type TearPlan struct {
	mu     sync.Mutex //tsb:latch level=8 name=tear-plan
	budget int64
	dead   bool
	synced map[string]int64 // length at the last landed Sync, by path, for Crash
}

// NewTearPlan returns a plan that tears the write crossing `budget`
// bytes from now, counted across every file sharing the plan.
func NewTearPlan(budget int64) *TearPlan {
	return &TearPlan{budget: budget, synced: make(map[string]int64)}
}

// Crash simulates a power cut: each file opened under the plan (and not
// renamed or removed since) loses what its last landed Sync did not
// cover, and every later write and sync fails.
func (p *TearPlan) Crash() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = true
	for path, n := range p.synced {
		if err := os.Truncate(path, n); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// consume accounts a write of n bytes: it returns how many bytes may
// actually persist and whether the device just (or previously) died.
func (p *TearPlan) consume(n int) (allowed int, err error) {
	if p == nil {
		return n, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return 0, fmt.Errorf("%w: log device dead", ErrInjected)
	}
	if int64(n) <= p.budget {
		p.budget -= int64(n)
		return n, nil
	}
	allowed = int(p.budget)
	p.budget = 0
	p.dead = true
	return allowed, fmt.Errorf("%w: torn write after %d bytes", ErrInjected, allowed)
}

// markSynced records that the file at path is durable up to n bytes.
func (p *TearPlan) markSynced(path string, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.synced[path] = n
}

// syncErr fails the sync if the device is dead.
func (p *TearPlan) syncErr() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return fmt.Errorf("%w: sync on dead log device", ErrInjected)
	}
	return nil
}

// TornLogFile wraps a LogFile with a shared TearPlan. Writes consume the
// plan's byte budget; the write crossing it persists only its allowed
// prefix and fails, and the file is dead from then on. A named file (an
// *os.File) is taken to start empty, as log files are created.
type TornLogFile struct {
	inner   LogFile
	plan    *TearPlan
	name    string
	written int64
}

// NewTornLogFile wraps inner under plan. A nil plan passes everything
// through untouched.
func NewTornLogFile(inner LogFile, plan *TearPlan) *TornLogFile {
	f := &TornLogFile{inner: inner, plan: plan}
	if named, ok := inner.(interface{ Name() string }); ok && plan != nil {
		f.name = named.Name()
		plan.markSynced(f.name, 0)
	}
	return f
}

// Write persists as much of p as the plan allows.
func (f *TornLogFile) Write(p []byte) (int, error) {
	allowed, err := f.plan.consume(len(p))
	if allowed > 0 {
		n, werr := f.inner.Write(p[:allowed])
		f.written += int64(n)
		if werr != nil {
			return n, werr
		}
	}
	if err != nil {
		return allowed, err
	}
	return len(p), nil
}

// Sync forwards to the inner file unless the device is dead.
func (f *TornLogFile) Sync() error {
	if err := f.plan.syncErr(); err != nil {
		return err
	}
	err := f.inner.Sync()
	if err == nil && f.name != "" {
		f.plan.markSynced(f.name, f.written)
	}
	return err
}

// Close always closes the inner file (a dead device can still be
// abandoned).
func (f *TornLogFile) Close() error { return f.inner.Close() }

var _ LogFile = (*TornLogFile)(nil)
