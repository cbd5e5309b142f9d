package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/record"
)

// worker is one closed-loop client: it issues its next op only after
// the previous one returned, like a caller of an embedded library or of
// a sync RPC.
type worker struct {
	id, clients int
	tgt         target
	m           *model
	stream      *opStream
	tr          *tracer // nil outside the traced ladder
	ack         func(idx int, seq uint32, ct record.Timestamp)

	lat       [numKinds]samples
	attempted uint64
	failed    uint64
	errs      []string
	scanRows  uint64
	userBytes uint64
	inserted  []record.Timestamp // commit time of this client's j-th inserted key

	val   [valueLen]byte
	rows  []record.Version
	drows []query.Row
}

const maxKeptErrors = 5

func newWorker(id, clients int, tgt target, m *model, mx mix, seed uint64, sampleCap int) *worker {
	w := &worker{id: id, clients: clients, tgt: tgt, m: m, stream: newOpStream(seed, mx, id, clients, m.n)}
	for k, share := range mx {
		if share > 0 {
			w.lat[k] = newSamples(sampleCap * int(share) / 100)
		}
	}
	w.rows = make([]record.Version, 0, scanLimit)
	w.drows = make([]query.Row, 0, scanLimit)
	return w
}

func (w *worker) fail(err error) {
	w.failed++
	if len(w.errs) < maxKeptErrors {
		w.errs = append(w.errs, err.Error())
	}
}

// run issues exactly count ops.
func (w *worker) run(count int) {
	for i := 0; i < count; i++ {
		if i%refreshEvery == 0 {
			if err := w.tgt.refresh(); err != nil {
				w.fail(fmt.Errorf("refresh: %w", err))
				return
			}
		}
		w.step(w.stream.next())
	}
}

// step executes one op, times the engine call alone, and checks the
// result against the model outside the timed interval.
func (w *worker) step(o op) {
	w.attempted++
	k := w.tgt.key(o.key)
	var t0, t1 time.Time
	var now record.Timestamp
	var err error
	if o.kind == opAsOf || o.kind == opScan || o.kind == opDiff {
		// past times are fractions of the commit clock
		if now, err = w.tgt.now(); err != nil {
			w.fail(fmt.Errorf("%s key %d: reading the clock: %w", kindNames[o.kind], o.key, err))
			return
		}
	}
	span := w.tr.begin(spanOp + int32(o.kind))
	switch o.kind {
	case opGet:
		at := w.tgt.readTime()
		floor := 0
		if at == record.TimeInfinity {
			floor = w.m.versions(o.key)
		}
		t0 = time.Now()
		v, ok, gerr := w.tgt.get(k)
		t1 = time.Now()
		if err = gerr; err == nil {
			err = w.m.checkPoint(o.key, at, floor, v, ok)
		}
	case opAsOf:
		at := pastTime(o.frac, now)
		t0 = time.Now()
		v, ok, gerr := w.tgt.getAsOf(k, at)
		t1 = time.Now()
		if err = gerr; err == nil {
			err = w.m.checkPoint(o.key, at, 0, v, ok)
		}
	case opUpdate, opInsert:
		seq := uint32(0)
		if o.kind == opUpdate {
			seq = uint32(w.m.versions(o.key))
		}
		fillValue(w.val[:], o.key, seq)
		t0 = time.Now()
		ct, perr := w.tgt.put(k, w.val[:])
		t1 = time.Now()
		if err = perr; err == nil {
			if o.kind == opUpdate {
				w.m.ack(o.key, ct)
			} else {
				w.inserted = append(w.inserted, ct)
			}
			w.userBytes += userBytesPerVersion
			if w.ack != nil {
				w.ack(o.key, seq, ct)
			}
		}
	case opHistory:
		t0 = time.Now()
		vs, herr := w.tgt.history(k)
		t1 = time.Now()
		if err = herr; err == nil {
			_, err = w.m.checkHistory(o.key, vs)
		}
	case opScan:
		at := pastTime(o.frac, now)
		t0 = time.Now()
		rows, serr := w.tgt.scan(at, k, scanLimit, w.rows[:0])
		t1 = time.Now()
		w.rows = rows
		w.scanRows += uint64(len(rows))
		if err = serr; err == nil {
			err = w.m.checkScan(o.key, at, scanLimit, rows)
		}
	case opDiff:
		t1s := pastTime(o.frac, now)
		t2s := min(t1s+now/50, now)
		t0 = time.Now()
		rows, derr := w.tgt.diff(t1s, t2s, k, scanLimit, w.drows[:0])
		t1 = time.Now()
		w.drows = rows
		if err = derr; err == nil {
			err = w.m.checkDiff(o.key, t1s, t2s, scanLimit, rows)
		}
	}
	w.tr.end(span)
	w.tr.clip(span, t0, t1)
	if err != nil {
		w.fail(fmt.Errorf("%s key %d: %w", kindNames[o.kind], o.key, err))
		return
	}
	w.lat[o.kind].add(t1.Sub(t0))
}

// phase is the outcome of one measured phase over all clients.
type phase struct {
	elapsed   time.Duration
	lat       [numKinds]samples
	attempted uint64
	failed    uint64
	errs      []string
	scanRows  uint64
	userBytes uint64
}

func (p phase) ops() uint64 { return p.attempted - p.failed }

// meanUS is the mean latency of the samples in microseconds, the
// stopwatch figure the ladder subtracts.
func meanUS(ss ...samples) float64 {
	var sum, n float64
	for _, s := range ss {
		for _, ns := range s.ns {
			sum += float64(ns)
		}
		n += float64(len(s.ns))
	}
	if n == 0 {
		return 0
	}
	return sum / n / 1e3
}

// runPhase runs the workers concurrently for exactly count ops each and
// merges what they measured.
func runPhase(workers []*worker, count int) phase {
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(count)
		}()
	}
	wg.Wait()
	return collect(workers, time.Since(start))
}

// collect merges everything the workers have measured so far.
func collect(workers []*worker, elapsed time.Duration) phase {
	p := phase{elapsed: elapsed}
	for _, w := range workers {
		for k := range w.lat {
			p.lat[k].merge(w.lat[k])
		}
		p.attempted += w.attempted
		p.failed += w.failed
		p.errs = append(p.errs, w.errs...)
		p.scanRows += w.scanRows
		p.userBytes += w.userBytes
	}
	return p
}
