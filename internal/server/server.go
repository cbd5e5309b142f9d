// Package server is the network service layer: it serves a db.DB over
// TCP with a pipelined binary protocol (internal/server/wire), turning
// the embedded TSB-tree engine into a system.
//
// # Connection model
//
// One connection is one session. Per connection three goroutines form a
// pipeline: a reader decodes frames (record.ReadFrame — the WAL's
// length+CRC shape) into a bounded in-flight window, an executor runs
// requests against the DB strictly in order, and a writer streams the
// responses back in that same order, so the window needs no correlation
// ids. The window bound is the server's per-connection memory ceiling
// and its backpressure: a client that pipelines past it simply blocks
// in TCP.
//
// The session's first frame must be wire.Hello, which names the tenant
// and pins the session's read snapshot (0 = the commit clock at open).
// Every key the session touches is mapped into the tenant's slice of
// the shard space by record.PrefixKey — tenants are disjoint by
// construction, and shard routing sees the prefixed bytes. Reads
// default to the pinned snapshot — one admissible serialization chosen
// at session open and held — and OpRefresh re-pins to "now" when the
// session wants to observe later commits.
//
// # Cursors and leases
//
// Every range read is a server-side cursor over a query.Spec operator
// tree: OpOpenQuery ships the tree (a plain scan is the one-node tree
// query.Scan), the server clamps it to the tenant's namespace, compiles
// it at the session snapshot, and keeps the live operator pipeline in
// the cursor table; OpQueryFetch drains one row batch from it. Between
// fetches the pipeline holds NO latch — an operator latches one shard
// for one leaf read inside a Next call and nothing between calls — so
// an idle or abandoned cursor can never block a writer. What it pins is
// heap only, capped two ways:
// a lease (every fetch renews it, a janitor closes expired cursors'
// operators, a session's close closes its own) and a per-session cursor
// cap (maxSessionCursors), past which an open is refused with the
// retryable wire.CodeOverloaded before anything is compiled.
//
// # Admission control, drain
//
// Writes are admitted against one engine gauge, the WAL backlog
// (Stats().WAL.BacklogBytes). Past the configured watermark the server
// sheds: the write is refused before any effect with the typed,
// retryable wire.Error (CodeOverloaded) — never accepted-then-dropped.
// Shutdown drains: listeners close, readers stop consuming frames,
// every request already in a window executes and its response flushes,
// cursors close. Acknowledged means durable throughout — a commit is
// acked only after db.DB.Update returned, which in durable mode means
// fsynced.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Config tunes the server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxFrameBytes bounds one message frame's payload in both
	// directions (default wire.DefaultMaxFrame). It must comfortably
	// exceed the largest value the DB accepts plus header overhead.
	MaxFrameBytes int
	// Window is the per-connection in-flight request bound: how many
	// decoded requests may await execution or response write (default
	// 64).
	Window int
	// IdleTimeout closes a connection no frame arrived on (default 5m).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response flush (default 30s).
	WriteTimeout time.Duration
	// CursorLease is how long an un-fetched server-side cursor survives
	// before the janitor reclaims it; every fetch renews it (default
	// 1m).
	CursorLease time.Duration
	// ShedWALBacklogBytes sheds writes while the WAL has grown this
	// many bytes past the last checkpoint (0 = disabled).
	ShedWALBacklogBytes int64
	// AdmissionProbe is how long an admission verdict is cached before
	// the engine gauge is re-read (default 5ms; negative probes on
	// every write — tests).
	AdmissionProbe time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = wire.DefaultMaxFrame
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.CursorLease <= 0 {
		c.CursorLease = time.Minute
	}
	if c.AdmissionProbe == 0 {
		c.AdmissionProbe = 5 * time.Millisecond
	}
	return c
}

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Stats is the server's observability surface; `tsbserve -status`
// renders it via wire.StatsReply.
type Stats struct {
	Conns            int    // open connections
	TotalConns       uint64 // connections ever accepted
	InFlight         int64  // requests read but not yet responded
	Ops              uint64 // operations executed
	Shed             uint64 // writes refused by admission control
	Cursors          int    // open server-side cursors
	CursorsReclaimed uint64 // cursors reaped by lease expiry
	P50Micros        uint64 // op execution latency percentiles
	P99Micros        uint64
	Draining         bool
	// PerOp breaks execution latency down by op class; only classes
	// that executed at least once appear.
	PerOp []wire.OpClassStats
}

// Server serves one DB over any number of listeners. It does not own
// the DB: the caller closes it after Shutdown returns (the daemon's
// drain order — in-flight batches finish, cursors close, DB.Close
// runs).
type Server struct {
	db  *db.DB
	cfg Config

	// mu guards the listener and connection sets and the draining
	// flag. It is a leaf: never held across a DB call, a blocking
	// network call, or another latch.
	mu       sync.Mutex //tsb:latch level=7 name=server
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	draining bool

	curs cursorTable

	connWg      sync.WaitGroup
	janitorStop chan struct{}
	janitorOnce sync.Once
	janitorWg   sync.WaitGroup

	nextSession atomic.Uint64
	totalConns  obs.Counter
	inFlight    obs.Gauge
	ops         obs.Counter
	shed        obs.Counter

	// Cached admission verdict (admission.go).
	admitProbe atomic.Int64
	admitState atomic.Pointer[admitVerdict]

	// allHist aggregates execution latency across every op; opHists
	// break it down by op byte (index = wire op code), badHist catches
	// frames whose op byte is outside the known range.
	allHist obs.Histogram
	opHists [wire.OpQueryFetch + 1]obs.Histogram
	badHist obs.Histogram
}

// opClassNames names each op byte for metrics labels and StatsReply,
// indexed by wire op code (0 is unused).
var opClassNames = [wire.OpQueryFetch + 1]string{
	wire.OpHello:       "hello",
	wire.OpPut:         "put",
	wire.OpGet:         "get",
	wire.OpDelete:      "delete",
	wire.OpCommit:      "commit",
	wire.OpCloseCursor: "close_cursor",
	wire.OpRefresh:     "refresh",
	wire.OpStats:       "stats",
	wire.OpPing:        "ping",
	wire.OpOpenQuery:   "open_query",
	wire.OpQueryFetch:  "query_fetch",
}

// opHistFor routes an executed request payload to its op-class
// histogram by the leading op byte.
func (s *Server) opHistFor(payload []byte) *obs.Histogram {
	if len(payload) == 0 {
		return &s.badHist
	}
	op := payload[0]
	if op >= wire.OpHello && op <= wire.OpQueryFetch {
		return &s.opHists[op]
	}
	return &s.badHist
}

// RegisterMetrics attaches the server's instruments to r, alongside the
// engine's own (db.DB.Metrics()). Safe to call once, any time after New.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("tsb_server_conns_total", "connections ever accepted", &s.totalConns)
	r.RegisterCounter("tsb_server_ops_total", "operations executed", &s.ops)
	r.RegisterCounter("tsb_server_shed_total", "writes refused by admission control", &s.shed)
	r.RegisterGauge("tsb_server_inflight_requests", "requests read but not yet responded", &s.inFlight)
	r.GaugeFunc("tsb_server_open_conns", "open connections", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
	r.GaugeFunc("tsb_server_open_cursors", "open server-side cursors", func() float64 {
		open, _ := s.curs.counts()
		return float64(open)
	})
	r.GaugeFunc("tsb_server_cursors_reclaimed_total", "cursors reaped by lease expiry", func() float64 {
		_, reclaimed := s.curs.counts()
		return float64(reclaimed)
	})
	r.RegisterHistogram("tsb_server_op_seconds", "request execution latency",
		&s.allHist, obs.Label{Key: "op", Value: "all"})
	for op := int(wire.OpHello); op <= int(wire.OpQueryFetch); op++ {
		r.RegisterHistogram("tsb_server_op_seconds", "request execution latency",
			&s.opHists[op], obs.Label{Key: "op", Value: opClassNames[op]})
	}
	r.RegisterHistogram("tsb_server_op_seconds", "request execution latency",
		&s.badHist, obs.Label{Key: "op", Value: "other"})
}

// New builds a server over d and starts the cursor-lease janitor.
func New(d *db.DB, cfg Config) *Server {
	s := &Server{
		db:          d,
		cfg:         cfg.withDefaults(),
		lns:         make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
		janitorStop: make(chan struct{}),
	}
	s.curs.init()
	s.janitorWg.Add(1)
	go s.janitor()
	return s
}

// Serve accepts connections on ln until Shutdown or a listener error.
// It returns nil once Shutdown closed the listener. Multiple Serve
// calls on different listeners may run concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		s.totalConns.Inc()
		go s.serveConn(nc)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// armRead prepares the next frame read: it refuses once draining, and
// arms the idle deadline under mu so Shutdown's wake-up deadline cannot
// be overwritten after the draining flag is set.
func (s *Server) armRead(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	_ = nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	return true
}

func (s *Server) unregister(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, nc)
}

// Shutdown drains the server: no new connections or frames are
// accepted, every request already inside a connection's window executes
// and its response is flushed, then connections and cursors close. If
// ctx expires first the remaining connections are severed and their
// unwritten responses dropped (their commits, if any, are durable —
// they were simply never acknowledged). The caller closes the DB after
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for ln := range s.lns {
		_ = ln.Close()
	}
	// Wake every reader blocked in a frame read; armRead cannot re-arm
	// past this because draining is set under the same mu.
	now := time.Now()
	for nc := range s.conns {
		_ = nc.SetReadDeadline(now)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for nc := range s.conns {
			_ = nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.janitorOnce.Do(func() { close(s.janitorStop) })
	s.janitorWg.Wait()
	s.curs.clear()
	return err
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	conns := len(s.conns)
	draining := s.draining
	s.mu.Unlock()
	open, reclaimed := s.curs.counts()
	st := Stats{
		Conns:            conns,
		TotalConns:       s.totalConns.Load(),
		InFlight:         s.inFlight.Load(),
		Ops:              s.ops.Load(),
		Shed:             s.shed.Load(),
		Cursors:          open,
		CursorsReclaimed: reclaimed,
		P50Micros:        s.allHist.Percentile(0.50),
		P99Micros:        s.allHist.Percentile(0.99),
		Draining:         draining,
	}
	for op := int(wire.OpHello); op <= int(wire.OpQueryFetch); op++ {
		st.PerOp = appendOpClass(st.PerOp, opClassNames[op], &s.opHists[op])
	}
	st.PerOp = appendOpClass(st.PerOp, "other", &s.badHist)
	return st
}

// appendOpClass appends h's summary under name, skipping classes that
// never executed.
func appendOpClass(dst []wire.OpClassStats, name string, h *obs.Histogram) []wire.OpClassStats {
	n := h.Count()
	if n == 0 {
		return dst
	}
	return append(dst, wire.OpClassStats{
		Name:      name,
		Count:     n,
		P50Micros: h.Percentile(0.50),
		P99Micros: h.Percentile(0.99),
		MaxMicros: h.MaxMicros(),
	})
}

// WireStats converts Stats for the OpStats reply.
func (st Stats) WireStats() wire.StatsReply {
	return wire.StatsReply{
		Conns:            uint64(st.Conns),
		TotalConns:       st.TotalConns,
		InFlight:         uint64(max(st.InFlight, 0)),
		Ops:              st.Ops,
		Shed:             st.Shed,
		Cursors:          uint64(st.Cursors),
		CursorsReclaimed: st.CursorsReclaimed,
		P50Micros:        st.P50Micros,
		P99Micros:        st.P99Micros,
		Draining:         st.Draining,
		PerOp:            st.PerOp,
	}
}

// janitor reaps expired cursor leases until Shutdown.
func (s *Server) janitor() {
	defer s.janitorWg.Done()
	iv := s.cfg.CursorLease / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.curs.reapExpired(time.Now())
		}
	}
}

// String names the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("tsbserve(%d shards)", s.db.Shards())
}
