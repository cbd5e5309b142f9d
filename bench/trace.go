package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The traced ladder. db.Open's wiring is private, so per-layer self time
// comes from a stack the bench assembles from the same public parts —
// device -> pool -> core.Tree -> txn.Manager (-> wal) — with a span
// wrapper at every layer boundary. Spans are recorded from the bench's
// own files only; spans inside the engine are a later change.

// span names, indexed by the id a wrapper passes to begin.
const (
	spanOp       int32 = iota                     // + opKind: one client op, the root of a trace
	spanCore           = spanOp + int32(numKinds) // a txn.Store call into core.Tree
	spanBuffer         = spanCore + 1             // a storage.PageStore call into buffer.Pool
	spanDevice         = spanCore + 2             // a call into the magnetic or write-once device, or the log file
	spanWAL            = spanCore + 3             // a txn.CommitLog call into wal.Log
	numSpanNames       = spanCore + 4
)

var spanNames = func() (n [numSpanNames]string) {
	for k, name := range kindNames {
		n[spanOp+int32(k)] = "op." + name
	}
	n[spanCore], n[spanBuffer], n[spanDevice], n[spanWAL] = "core", "buffer", "device", "wal"
	return n
}()

// layerOf maps a span name to the layer whose self time it feeds: an op
// span's self time is what the transaction manager spends outside the
// store and the log.
func layerOf(name int32) string {
	if name < spanCore {
		return "txn"
	}
	return spanNames[name]
}

type span struct {
	name       int32
	parent     int32 // index of the span that caused it, -1 for an op
	op         int32 // ordinal of the client op it belongs to
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. The ladder is one
// client on one goroutine, so it needs no lock. A nil tracer, or one not
// started yet, records nothing: the same wrappers run in the untraced
// pass that trace.overhead_ratio compares against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	cur   int32
	ops   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), cur: -1}
}

func (t *tracer) start() { t.on, t.t0 = true, time.Now() }

func (t *tracer) begin(name int32) int32 {
	if t == nil || !t.on {
		return -1
	}
	if name < spanCore {
		t.ops++
	}
	t.spans = append(t.spans, span{name: name, parent: t.cur, op: t.ops - 1, start: int64(time.Since(t.t0))})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.cur = t.spans[i].parent
}

// clip narrows a finished span to [t0, t1]: the worker opens an op's
// span before it prepares the call and closes it after the oracle check,
// but only the engine call between its two clock reads belongs to it.
func (t *tracer) clip(i int32, t0, t1 time.Time) {
	if i >= 0 {
		t.spans[i].start, t.spans[i].end = int64(t0.Sub(t.t0)), int64(t1.Sub(t.t0))
	}
}

// selfTimes is each layer's self time in nanoseconds: a span's duration
// minus the part of it its child spans cover (children never overlap
// here: one goroutine, strictly nested calls).
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[layerOf(s.name)] += self[i]
	}
	return out
}

// writeSpans stores the spans as {"names": [...], "columns": [...],
// "spans": [[name, parent, op, start_ns, end_ns], ...]}.
func writeSpans(path string, spans []span, extra map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head := map[string]any{"names": spanNames, "columns": []string{"name", "parent", "op", "start_ns", "end_ns"}}
	for k, v := range extra {
		head[k] = v
	}
	hb, err := json.Marshal(head)
	if err != nil {
		_ = f.Close()
		return err
	}
	fmt.Fprintf(w, "%s,\"spans\":[", hb[:len(hb)-1])
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.parent, s.op, s.start, s.end)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// --- span wrappers, one per layer boundary ---

type spanPages struct {
	in   storage.PageStore
	tr   *tracer
	name int32
}

func (s spanPages) PageSize() int { return s.in.PageSize() }
func (s spanPages) Alloc() (uint64, error) {
	sp := s.tr.begin(s.name)
	defer s.tr.end(sp)
	return s.in.Alloc()
}
func (s spanPages) Read(p uint64) ([]byte, error) {
	sp := s.tr.begin(s.name)
	defer s.tr.end(sp)
	return s.in.Read(p)
}
func (s spanPages) Write(p uint64, data []byte) error {
	sp := s.tr.begin(s.name)
	defer s.tr.end(sp)
	return s.in.Write(p, data)
}
func (s spanPages) Free(p uint64) error {
	sp := s.tr.begin(s.name)
	defer s.tr.end(sp)
	return s.in.Free(p)
}

type spanWORM struct {
	in storage.WORMDevice
	tr *tracer
}

func (s spanWORM) SectorSize() int          { return s.in.SectorSize() }
func (s spanWORM) Stats() storage.WORMStats { return s.in.Stats() }
func (s spanWORM) Append(data []byte) (storage.Addr, error) {
	sp := s.tr.begin(spanDevice)
	defer s.tr.end(sp)
	return s.in.Append(data)
}
func (s spanWORM) ReadAt(a storage.Addr) ([]byte, error) {
	sp := s.tr.begin(spanDevice)
	defer s.tr.end(sp)
	return s.in.ReadAt(a)
}

// spanStore wraps core.Tree as the store the transaction manager sees,
// with every streaming extension the db layer's shard router has, so
// cursors and diffs take the same code paths as under db.Open.
type spanStore struct {
	t  *core.Tree
	tr *tracer
}

var (
	_ txn.CursorStore       = spanStore{}
	_ txn.WindowCursorStore = spanStore{}
	_ txn.Differ            = spanStore{}
)

func (s spanStore) Insert(v record.Version) error {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.Insert(v)
}
func (s spanStore) CommitKey(k record.Key, id uint64, ct record.Timestamp) error {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.CommitKey(k, id, ct)
}
func (s spanStore) AbortKey(k record.Key, id uint64) error {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.AbortKey(k, id)
}
func (s spanStore) GetPending(k record.Key, id uint64) (record.Version, bool, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.GetPending(k, id)
}
func (s spanStore) Get(k record.Key) (record.Version, bool, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.Get(k)
}
func (s spanStore) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.GetAsOf(k, at)
}
func (s spanStore) ScanAsOf(at record.Timestamp, low record.Key, high record.Bound) ([]record.Version, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.ScanAsOf(at, low, high)
}
func (s spanStore) History(k record.Key) ([]record.Version, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.History(k)
}
func (s spanStore) ScanRange(low record.Key, high record.Bound, from, to record.Timestamp) ([]record.Version, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.ScanRange(low, high, from, to)
}
func (s spanStore) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.ScanPageAsOf(at, low, high, reverse)
}
func (s spanStore) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp) (core.Page, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.ScanRangePage(low, high, from, to)
}
func (s spanStore) Diff(low record.Key, high record.Bound, from, to record.Timestamp) ([]core.Change, error) {
	sp := s.tr.begin(spanCore)
	defer s.tr.end(sp)
	return s.t.Diff(low, high, from, to)
}

type spanLog struct {
	in txn.CommitLog
	tr *tracer
}

func (s spanLog) AppendBatch(recs []txn.CommitRecord) error {
	sp := s.tr.begin(spanWAL)
	defer s.tr.end(sp)
	return s.in.AppendBatch(recs)
}

type spanFile struct {
	in storage.LogFile
	tr *tracer
}

func (s spanFile) Write(p []byte) (int, error) {
	sp := s.tr.begin(spanDevice)
	defer s.tr.end(sp)
	return s.in.Write(p)
}
func (s spanFile) Sync() error {
	sp := s.tr.begin(spanDevice)
	defer s.tr.end(sp)
	return s.in.Sync()
}
func (s spanFile) Close() error { return s.in.Close() }

// stack is rung A: one shard, assembled by the bench.
type stack struct {
	tm   *txn.Manager
	tree *core.Tree
	log  *wal.Log // nil for the in-memory variant
}

var _ engine = (*stack)(nil)

// newStack builds device -> span -> pool -> span -> tree -> span -> txn,
// plus span -> wal -> span -> file when walDir is set (the durable
// variant: every commit fsynced, as in durable-paged; the devices stay
// simulated because the paged files are wired only inside db.Open).
func newStack(tr *tracer, cfg stackConfig) (*stack, error) {
	cost := storage.DefaultCostModel()
	mag := storage.NewMagneticDisk(cfg.pageSize, cost)
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 1024, Cost: cost})
	pool := buffer.NewPool(spanPages{mag, tr, spanDevice}, cfg.bufferPages)
	tree, err := core.New(spanPages{pool, tr, spanBuffer}, spanWORM{worm, tr},
		core.Config{Policy: core.PolicyLastUpdate, LeafCapacity: cfg.leafCapacity})
	if err != nil {
		return nil, err
	}
	s := &stack{tree: tree, tm: txn.NewManager(spanStore{tree, tr}, 0)}
	if cfg.walDir != "" {
		if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
			return nil, err
		}
		s.log, err = wal.Open(wal.Options{Dir: cfg.walDir, WrapFile: func(f storage.LogFile) storage.LogFile {
			return spanFile{f, tr}
		}}, 1, 0)
		if err != nil {
			return nil, err
		}
		s.tm.SetCommitLog(spanLog{s.log, tr})
	}
	return s, nil
}

type stackConfig struct {
	pageSize, leafCapacity, bufferPages int
	walDir                              string
}

func (s *stack) Update(fn func(*txn.Txn) error) error { return s.tm.Update(fn) }
func (s *stack) Get(k record.Key) (record.Version, bool, error) {
	return s.tm.ReadOnly().Get(k)
}
func (s *stack) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	return s.tm.ReadAt(at).Get(k)
}
func (s *stack) History(k record.Key) ([]record.Version, error) { return s.tm.History(k) }
func (s *stack) ReadAt(at record.Timestamp) *txn.ReadTxn        { return s.tm.ReadAt(at) }
func (s *stack) Now() record.Timestamp                          { return s.tm.Now() }
func (s *stack) QueryAt(at record.Timestamp, spec *query.Spec) (query.Operator, error) {
	return query.Compile(spec, s.tm.ReadAt(at))
}

func (s *stack) close() error {
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}
