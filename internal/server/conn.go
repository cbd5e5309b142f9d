package server

import (
	"bufio"
	"errors"
	"net"
	"time"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server/wire"
	"repro/internal/txn"
)

// session is one connection's server-side state: the tenant namespace,
// the pinned read snapshot, and the cursors it owns (reaped on close).
type session struct {
	id     uint64
	hello  bool
	tenant []byte
	at     record.Timestamp // pinned read snapshot
	nsHigh record.Bound     // upper edge of TenantRange(tenant)
}

// conn is one connection's state. One goroutine runs the connection
// from first frame to close, so sess needs no lock.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess session

	unflushed int64 // responses in bw, still counted in the in-flight gauge
}

// serveConn runs one connection: read a frame, execute it, buffer its
// response, and flush unless the next request has already arrived whole
// — a pipelined burst is answered with one write, and a frame that has
// only partly arrived never holds back the responses before it. A
// client that stops reading blocks the write under WriteTimeout, and
// TCP flow control pushes back on the client's sends.
func (s *Server) serveConn(nc net.Conn) {
	defer s.connWg.Done()
	defer s.unregister(nc)
	defer func() { _ = nc.Close() }()

	c := &conn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 1<<12),
		bw:   bufio.NewWriterSize(nc, 1<<12),
		sess: session{id: s.nextSession.Add(1)},
	}
	// No fetch can arrive once the loop ends, so the session's cursors
	// are reaped before the connection is unregistered.
	defer s.curs.removeSession(c.sess.id)

	var werr error
	for werr == nil && s.armRead(nc) {
		payload, err := record.ReadFrame(c.br, s.cfg.MaxFrameBytes)
		if err != nil {
			// A CRC or size violation is answered with one typed error
			// and then the connection closes — after either, the stream
			// offset can no longer be trusted.
			if errors.Is(err, record.ErrFrameTooLarge) || errors.Is(err, record.ErrFrameCRC) {
				werr = c.serve(nil)
			}
			break
		}
		if werr = c.serve(payload); werr == nil && !c.nextFrameBuffered() {
			werr = c.flush()
		}
	}
	// A drain or a bad-frame reply can leave a response buffered. The
	// connection closes next, so a failed flush has no one to tell; after
	// a write error Flush writes nothing and only settles the gauge.
	_ = c.flush()
}

// nextFrameBuffered reports whether br already holds the whole next
// request frame, so reading it cannot block.
func (c *conn) nextFrameBuffered() bool {
	buf, _ := c.br.Peek(c.br.Buffered())
	return record.FrameComplete(buf)
}

// flush writes the buffered responses and only then drops them from the
// in-flight gauge: a request stays in flight until its response has
// left bw.
func (c *conn) flush() error {
	err := c.bw.Flush()
	c.srv.inFlight.Add(-c.unflushed)
	c.unflushed = 0
	return err
}

// serve executes one request and buffers its response frame. A nil
// payload is a framing violation, answered with the typed bad-request.
func (c *conn) serve(payload []byte) error {
	s := c.srv
	s.inFlight.Add(1)
	c.unflushed++
	start := time.Now()
	body := c.respond(payload)
	dur := time.Since(start)
	s.allHist.Observe(dur)
	s.opHistFor(payload).Observe(dur)
	s.ops.Inc()
	_ = c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, err := c.bw.Write(record.AppendFrame(nil, body))
	return err
}

func errResp(code byte, msg string) []byte {
	return wire.AppendError(nil, code, msg)
}

// dbErrResp maps an engine error onto the wire: no-wait lock conflicts
// are the retryable CodeConflict, everything else is CodeInternal.
func dbErrResp(err error) []byte {
	if errors.Is(err, txn.ErrLockConflict) {
		return errResp(wire.CodeConflict, err.Error())
	}
	return errResp(wire.CodeInternal, err.Error())
}

func (c *conn) respond(payload []byte) []byte {
	if payload == nil {
		return errResp(wire.CodeBadRequest, "malformed frame")
	}
	d := record.NewDecoder(payload)
	op := d.Byte()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "empty request")
	}
	if !c.sess.hello && op != wire.OpHello {
		return errResp(wire.CodeBadRequest, "first request must be hello")
	}
	switch op {
	case wire.OpHello:
		return c.opHello(d)
	case wire.OpPut:
		return c.opPut(d)
	case wire.OpGet:
		return c.opGet(d)
	case wire.OpDelete:
		return c.opDelete(d)
	case wire.OpCommit:
		return c.opCommit(d)
	case wire.OpCloseCursor:
		return c.opCloseCursor(d)
	case wire.OpRefresh:
		return c.opRefresh(d)
	case wire.OpStats:
		return c.opStats(d)
	case wire.OpPing:
		return c.opPing(d)
	case wire.OpOpenQuery:
		return c.opOpenQuery(d)
	case wire.OpQueryFetch:
		return c.opQueryFetch(d)
	}
	return errResp(wire.CodeBadRequest, "unknown op")
}

// ok starts an OK response body.
func ok() *record.Encoder {
	e := record.NewEncoder(make([]byte, 0, 32))
	e.Byte(wire.StatusOK)
	return e
}

func (c *conn) opHello(d *record.Decoder) []byte {
	if c.sess.hello {
		return errResp(wire.CodeBadRequest, "duplicate hello")
	}
	h, err := wire.DecodeHello(d)
	if err != nil {
		return errResp(wire.CodeBadRequest, err.Error())
	}
	if h.Version != wire.ProtocolVersion {
		return errResp(wire.CodeBadRequest, "unsupported protocol version")
	}
	at := h.At
	if at == 0 {
		at = c.srv.db.Now()
	}
	tenant := append([]byte(nil), h.Tenant...) // payload buffer is transient
	c.sess.hello = true
	c.sess.tenant = tenant
	c.sess.at = at
	_, c.sess.nsHigh = record.TenantRange(tenant)
	e := ok()
	e.Time(at)
	return e.Bytes()
}

// commit runs fn inside DB.Update and returns the commit timestamp.
func (c *conn) commit(fn func(*txn.Txn) error) (record.Timestamp, error) {
	var tx *txn.Txn
	err := c.srv.db.Update(func(t *txn.Txn) error {
		tx = t
		return fn(t)
	})
	if err != nil {
		return 0, err
	}
	return tx.CommitTime(), nil
}

func (c *conn) opPut(d *record.Decoder) []byte {
	if resp := c.srv.admit(); resp != nil {
		return resp
	}
	k := d.Key()
	v := d.Blob()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short put")
	}
	ct, err := c.commit(func(t *txn.Txn) error {
		return t.Put(record.PrefixKey(c.sess.tenant, k), v)
	})
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Time(ct)
	return e.Bytes()
}

func (c *conn) opDelete(d *record.Decoder) []byte {
	if resp := c.srv.admit(); resp != nil {
		return resp
	}
	k := d.Key()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short delete")
	}
	ct, err := c.commit(func(t *txn.Txn) error {
		return t.Delete(record.PrefixKey(c.sess.tenant, k))
	})
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Time(ct)
	return e.Bytes()
}

func (c *conn) opCommit(d *record.Decoder) []byte {
	if resp := c.srv.admit(); resp != nil {
		return resp
	}
	ops, err := wire.DecodeCommit(d)
	if err != nil {
		return errResp(wire.CodeBadRequest, err.Error())
	}
	ct, err := c.commit(func(t *txn.Txn) error {
		for _, op := range ops {
			pk := record.PrefixKey(c.sess.tenant, op.Key)
			if op.Delete {
				if err := t.Delete(pk); err != nil {
					return err
				}
			} else if err := t.Put(pk, op.Value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Time(ct)
	return e.Bytes()
}

func (c *conn) opGet(d *record.Decoder) []byte {
	k := d.Key()
	at := d.Time()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short get")
	}
	if at == 0 {
		at = c.sess.at
	}
	v, found, err := c.srv.db.GetAsOf(record.PrefixKey(c.sess.tenant, k), at)
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Bool(found)
	if found {
		sk, okStrip := record.StripPrefix(c.sess.tenant, v.Key)
		if !okStrip {
			return errResp(wire.CodeInternal, "version outside session namespace")
		}
		v.Key = sk
		e.Version(v)
	}
	return e.Bytes()
}

// nsBound maps a tenant-relative high bound into the session's
// namespace; an open one becomes the namespace's own upper edge.
func (c *conn) nsBound(b record.Bound) record.Bound {
	if b.IsInfinite() {
		return c.sess.nsHigh
	}
	return record.KeyBound(record.PrefixKey(c.sess.tenant, b.Key()))
}

// namespaceSpec maps a tenant-relative operator tree into the
// session's slice of the keyspace: the tenant clamp of every range
// read. Primary-key fields (scan/diff windows, history keys, filter
// ranges) are prefixed, and an open high bound becomes the namespace's
// own, so no scan leaves the tenant's range; secondary keys
// are not (the index maps them to already-prefixed primary keys, and
// the semi-join intersects with the tenant-clamped primary stream).
// The decoded tree is ours to mutate in place.
func (c *conn) namespaceSpec(s *query.Spec) *query.Spec {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case query.OpScan, query.OpDiff:
		s.Low = record.PrefixKey(c.sess.tenant, s.Low)
		s.High = c.nsBound(s.High)
	case query.OpHistory:
		s.Key = record.PrefixKey(c.sess.tenant, s.Key)
	case query.OpFilter:
		if s.HasKeyRange {
			s.FilterLow = record.PrefixKey(c.sess.tenant, s.FilterLow)
			s.FilterHigh = c.nsBound(s.FilterHigh)
		}
	}
	s.Input = c.namespaceSpec(s.Input)
	s.Left = c.namespaceSpec(s.Left)
	s.Right = c.namespaceSpec(s.Right)
	return s
}

// opOpenQuery compiles a shipped operator tree at the session snapshot
// and registers its live pipeline as a cursor. Malformed trees — decode
// failures and Validate refusals alike — are the typed bad-request;
// nothing panics on crafted bytes. A session at maxSessionCursors is
// refused with the retryable overloaded error before anything compiles.
func (c *conn) opOpenQuery(d *record.Decoder) []byte {
	spec, err := wire.DecodeOpenQuery(d)
	if err != nil {
		return errResp(wire.CodeBadRequest, err.Error())
	}
	if !c.srv.curs.hasRoom(c.sess.id) {
		return errResp(wire.CodeOverloaded, "session cursor limit reached: close or drain a cursor first")
	}
	op, err := c.srv.db.QueryAt(c.sess.at, c.namespaceSpec(spec))
	if err != nil {
		if errors.Is(err, query.ErrBadSpec) {
			return errResp(wire.CodeBadRequest, err.Error())
		}
		return dbErrResp(err)
	}
	id := c.srv.curs.add(&cursorState{
		sess:    c.sess.id,
		expires: time.Now().Add(c.srv.cfg.CursorLease),
		op:      op,
	})
	e := ok()
	e.Uvarint(id)
	return e.Bytes()
}

// opQueryFetch drains one row batch from a cursor's pipeline. The
// operator stays checked out for the duration (the busy flag serializes
// fetches and holds the janitor off), and between fetches it idles
// latch-free under its lease.
func (c *conn) opQueryFetch(d *record.Decoder) []byte {
	id := d.Uvarint()
	maxN := d.Uvarint()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short query-fetch")
	}
	if maxN == 0 {
		maxN = 128
	}
	maxN = min(maxN, 1024)

	cu, found := c.srv.curs.checkout(id, c.sess.id, time.Now().Add(c.srv.cfg.CursorLease))
	if !found {
		return errResp(wire.CodeUnknownCursor, "no such cursor (closed, expired, or another session's)")
	}

	fail := func(code byte, msg string) []byte {
		closeOp(cu)
		c.srv.curs.checkin(id, cu, true)
		return errResp(code, msg)
	}

	budget := c.srv.cfg.MaxFrameBytes - 256
	e := ok()
	count := 0
	done := false
	for count < int(maxN) {
		if !cu.op.Next() {
			if err := cu.op.Err(); err != nil {
				return fail(wire.CodeInternal, err.Error())
			}
			done = true
			break
		}
		r := cu.op.Row()
		sk, okStrip := record.StripPrefix(c.sess.tenant, r.Key)
		if !okStrip {
			return fail(wire.CodeInternal, "query row outside session namespace")
		}
		r.Key = sk
		vs := make([]record.Version, len(r.Versions))
		for i, v := range r.Versions {
			if svk, okV := record.StripPrefix(c.sess.tenant, v.Key); okV {
				v.Key = svk
			} else {
				return fail(wire.CodeInternal, "query version outside session namespace")
			}
			vs[i] = v
		}
		r.Versions = vs
		e.Uvarint(1) // "another row follows"
		wire.EncodeRow(e, r)
		count++
		if e.Len() >= budget {
			break
		}
	}
	if done {
		closeOp(cu)
	}
	c.srv.curs.checkin(id, cu, done)
	e.Uvarint(0) // end of batch
	e.Bool(done)
	return e.Bytes()
}

func (c *conn) opCloseCursor(d *record.Decoder) []byte {
	id := d.Uvarint()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short close-cursor")
	}
	c.srv.curs.remove(id, c.sess.id)
	return ok().Bytes() // idempotent: closing a gone cursor is fine
}

func (c *conn) opRefresh(d *record.Decoder) []byte {
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short refresh")
	}
	c.sess.at = c.srv.db.Now()
	e := ok()
	e.Time(c.sess.at)
	return e.Bytes()
}

func (c *conn) opStats(d *record.Decoder) []byte {
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short stats")
	}
	st := c.srv.Stats().WireStats()
	return wire.AppendStatsReply(ok().Bytes(), st)
}

func (c *conn) opPing(d *record.Decoder) []byte {
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short ping")
	}
	e := ok()
	e.Time(c.srv.db.Now())
	return e.Bytes()
}
