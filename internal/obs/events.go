package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span in the event log: a named background
// operation (a checkpoint, a compaction round, a maintenance job) with
// its wall start time and duration.
type Event struct {
	Seq    uint64        // monotonically increasing per log
	Name   string        // span name, e.g. "checkpoint" or "compact"
	Detail string        // free-form outcome text, set at End
	Start  time.Time     // wall-clock start
	Dur    time.Duration // span duration
}

// EventLog is a fixed-size ring buffer of completed spans plus a
// second ring of slow ops — spans whose duration met the threshold.
// Recording is a mutex-guarded ring store (no allocation, no engine
// latch); the mutex is private to the log and held for a copy only, so
// recording is legal at any level of the latch hierarchy.
type EventLog struct {
	mu     sync.Mutex
	events ring
	slow   ring
	next   uint64
	thresh atomic.Int64 // slow-op threshold, nanoseconds (0 = disabled)
}

// ring is a fixed-capacity overwrite-oldest event buffer.
type ring struct {
	buf []Event
	n   uint64 // total ever appended
}

func (r *ring) append(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// snapshot returns the retained events oldest-first.
func (r *ring) snapshot() []Event {
	size := uint64(len(r.buf))
	count := r.n
	if count > size {
		count = size
	}
	out := make([]Event, 0, count)
	for i := r.n - count; i < r.n; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}

// NewEventLog returns a log retaining the last size events, recording
// spans at or above slowThreshold into the slow-op ring (a quarter of
// size, minimum 16). A zero slowThreshold disables the slow-op log.
func NewEventLog(size int, slowThreshold time.Duration) *EventLog {
	if size < 16 {
		size = 16
	}
	slowSize := size / 4
	if slowSize < 16 {
		slowSize = 16
	}
	l := &EventLog{
		events: ring{buf: make([]Event, size)},
		slow:   ring{buf: make([]Event, slowSize)},
	}
	l.thresh.Store(int64(slowThreshold))
	return l
}

// SetSlowThreshold changes the slow-op threshold (0 disables).
func (l *EventLog) SetSlowThreshold(d time.Duration) { l.thresh.Store(int64(d)) }

// Record appends one completed span. Nil-safe: a nil log drops the
// event, so instrumented code never branches on wiring.
func (l *EventLog) Record(name, detail string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	thresh := l.thresh.Load()
	l.mu.Lock()
	e := Event{Seq: l.next, Name: name, Detail: detail, Start: start, Dur: dur}
	l.next++
	l.events.append(e)
	if thresh > 0 && int64(dur) >= thresh {
		l.slow.append(e)
	}
	l.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.snapshot()
}

// SlowOps returns the retained slow ops, oldest first.
func (l *EventLog) SlowOps() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slow.snapshot()
}

// Span is an in-flight timed operation. It is a value: starting one
// allocates nothing, and End both logs the event and feeds the
// optional histogram. The zero Span is inert.
type Span struct {
	log   *EventLog
	hist  *Histogram
	name  string
	start time.Time
}

// StartSpan opens a span named name; h (optional, may be nil) also
// receives the duration at End. Safe on a nil log.
func (l *EventLog) StartSpan(name string, h *Histogram) Span {
	return Span{log: l, hist: h, name: name, start: time.Now()}
}

// End completes the span: the duration is recorded in the log (and the
// slow-op ring past the threshold) and observed by the histogram.
// detail is the outcome text shown in the event log. It returns the
// span's duration.
func (s Span) End(detail string) time.Duration {
	if s.name == "" && s.log == nil && s.hist == nil {
		return 0
	}
	dur := time.Since(s.start)
	if s.hist != nil {
		s.hist.Observe(dur)
	}
	s.log.Record(s.name, detail, s.start, dur)
	return dur
}
