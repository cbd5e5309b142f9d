// Package wire defines the tsbserve network protocol: the op and status
// codes, the typed error both sides exchange, and the message
// encode/decode helpers shared by internal/server and its client.
//
// Transport framing is record.AppendFrame/ReadFrame — the same
// length-prefixed, CRC32-C-guarded frame shape the WAL uses — so one
// fuzzed decoder guards both the durability and the network surface.
// One frame carries one message. Message bodies are encoded with
// record.Encoder/Decoder (uvarints, length-prefixed blobs): there is no
// second codec layer.
//
// A request frame is an op byte followed by the op's fields. A response
// frame is a status byte — StatusOK or an error code — followed by the
// op's reply fields (OK) or a message blob (error). Responses return in
// request order on each connection, so frames need no correlation ids:
// the pipeline window IS the correlation.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/record"
)

// ProtocolVersion is sent in Hello; the server rejects versions it does
// not speak. Version 2 retired the resume-cursor ops and renumbered what
// followed them; Hello kept its code and layout, so a version-1 peer is
// refused by the version check rather than misparsed.
const ProtocolVersion = 2

// DefaultMaxFrame bounds one message frame's payload unless configured
// otherwise: requests and responses alike must fit.
const DefaultMaxFrame = 1 << 20

// MaxTenantLen bounds the tenant id in Hello.
const MaxTenantLen = 256

// Request op codes.
const (
	OpHello byte = iota + 1 // must be the first frame of a connection
	OpPut
	OpGet
	OpDelete
	OpCommit
	OpCloseCursor
	OpRefresh
	OpStats
	OpPing
	OpOpenQuery  // query.go: open a cursor over a query.Spec operator tree
	OpQueryFetch // query.go: fetch one row batch from it
)

// Response status codes. StatusOK precedes reply fields; every other
// code precedes a message blob and is carried to the caller as *Error.
const (
	StatusOK byte = iota
	CodeOverloaded
	CodeConflict
	CodeBadRequest
	CodeUnknownCursor
	CodeShuttingDown
	CodeInternal
)

// Error is the typed server-reported failure of one operation. The
// retryable codes are the load-shedding and contention outcomes: the
// operation was refused before any effect, so the client may simply try
// again (elsewhere, or after backoff).
type Error struct {
	Code byte
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("tsbserve: %s: %s", codeName(e.Code), e.Msg)
}

// Retryable reports whether the operation was refused without effect
// and can be re-issued: admission-control shedding (CodeOverloaded),
// no-wait lock conflicts (CodeConflict), and drain (CodeShuttingDown).
func (e *Error) Retryable() bool {
	return e.Code == CodeOverloaded || e.Code == CodeConflict || e.Code == CodeShuttingDown
}

func codeName(c byte) string {
	switch c {
	case CodeOverloaded:
		return "overloaded"
	case CodeConflict:
		return "conflict"
	case CodeBadRequest:
		return "bad request"
	case CodeUnknownCursor:
		return "unknown cursor"
	case CodeShuttingDown:
		return "shutting down"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code %d", c)
}

// IsRetryable reports whether err is a typed server error the caller
// may re-issue.
func IsRetryable(err error) bool {
	var we *Error
	return errors.As(err, &we) && we.Retryable()
}

// IsOverloaded reports whether err is the admission-control shed error.
func IsOverloaded(err error) bool {
	var we *Error
	return errors.As(err, &we) && we.Code == CodeOverloaded
}

// AppendError appends an error response (status + message blob).
func AppendError(buf []byte, code byte, msg string) []byte {
	e := record.NewEncoder(buf)
	e.Byte(code)
	e.Blob([]byte(msg))
	return e.Bytes()
}

// DecodeResponse splits a response payload into its body decoder, or
// the *Error an error status carries.
func DecodeResponse(payload []byte) (*record.Decoder, error) {
	d := record.NewDecoder(payload)
	status := d.Byte()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: short response: %w", err)
	}
	if status == StatusOK {
		return d, nil
	}
	msg := d.Blob()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: short error response: %w", err)
	}
	return nil, &Error{Code: status, Msg: string(msg)}
}

// Hello opens a session: it must be the connection's first request.
// At pins the session's read snapshot; 0 pins "now" (the server's
// commit clock at session open). The reply is the pinned timestamp.
type Hello struct {
	Version uint64
	Tenant  []byte
	At      record.Timestamp
}

// AppendHello appends an OpHello request.
func AppendHello(buf []byte, h Hello) []byte {
	e := record.NewEncoder(buf)
	e.Byte(OpHello)
	e.Uvarint(h.Version)
	e.Blob(h.Tenant)
	e.Time(h.At)
	return e.Bytes()
}

// DecodeHello decodes the fields after the op byte.
func DecodeHello(d *record.Decoder) (Hello, error) {
	var h Hello
	h.Version = d.Uvarint()
	h.Tenant = d.Blob()
	h.At = d.Time()
	if err := d.Err(); err != nil {
		return Hello{}, err
	}
	if len(h.Tenant) > MaxTenantLen {
		return Hello{}, fmt.Errorf("tenant id %d bytes exceeds %d", len(h.Tenant), MaxTenantLen)
	}
	return h, nil
}

// CommitOp is one write of an atomic multi-op commit.
type CommitOp struct {
	Delete bool
	Key    record.Key
	Value  []byte // ignored for deletes
}

// AppendCommit appends an OpCommit request carrying ops as one atomic
// transaction.
func AppendCommit(buf []byte, ops []CommitOp) []byte {
	e := record.NewEncoder(buf)
	e.Byte(OpCommit)
	e.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		e.Bool(op.Delete)
		e.Key(op.Key)
		if op.Delete {
			e.Blob(nil)
		} else {
			e.Blob(op.Value)
		}
	}
	return e.Bytes()
}

// DecodeCommit decodes the fields after the op byte. The count guard
// mirrors the record decoder's anti-balloon rule: each op costs at
// least three bytes on the wire, so a count beyond Remaining/3 is
// corruption, rejected before any allocation trusts it.
func DecodeCommit(d *record.Decoder) ([]CommitOp, error) {
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()/3)+1 {
		return nil, fmt.Errorf("commit op count %d exceeds payload", n)
	}
	ops := make([]CommitOp, 0, n)
	for i := uint64(0); i < n; i++ {
		var op CommitOp
		op.Delete = d.Bool()
		op.Key = d.Key()
		op.Value = d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// StatsReply is the server's observability surface on the wire —
// what `tsbserve -status` renders.
type StatsReply struct {
	Conns            uint64 // open connections
	TotalConns       uint64 // connections ever accepted
	InFlight         uint64 // requests read but not yet responded
	Ops              uint64 // operations executed
	Shed             uint64 // writes refused by admission control
	Cursors          uint64 // open server-side cursors
	CursorsReclaimed uint64 // cursors reaped by lease expiry
	P50Micros        uint64 // op latency percentiles (histogram upper bounds)
	P99Micros        uint64
	Draining         bool
	// PerOp breaks op latency down by op class, executed classes only.
	// The list trails the fixed fields on the wire and may be absent (a
	// pre-extension peer): absence decodes as nil.
	PerOp []OpClassStats
}

// OpClassStats is one op class's latency summary inside StatsReply.
// Percentiles and max are histogram upper bounds in microseconds.
type OpClassStats struct {
	Name      string
	Count     uint64
	P50Micros uint64
	P99Micros uint64
	MaxMicros uint64
}

// AppendStatsReply appends the OK response body of an OpStats request.
func AppendStatsReply(buf []byte, s StatsReply) []byte {
	e := record.NewEncoder(buf)
	e.Uvarint(s.Conns)
	e.Uvarint(s.TotalConns)
	e.Uvarint(s.InFlight)
	e.Uvarint(s.Ops)
	e.Uvarint(s.Shed)
	e.Uvarint(s.Cursors)
	e.Uvarint(s.CursorsReclaimed)
	e.Uvarint(s.P50Micros)
	e.Uvarint(s.P99Micros)
	e.Bool(s.Draining)
	e.Uvarint(uint64(len(s.PerOp)))
	for _, oc := range s.PerOp {
		e.Blob([]byte(oc.Name))
		e.Uvarint(oc.Count)
		e.Uvarint(oc.P50Micros)
		e.Uvarint(oc.P99Micros)
		e.Uvarint(oc.MaxMicros)
	}
	return e.Bytes()
}

// DecodeStatsReply decodes an OpStats OK response body.
func DecodeStatsReply(d *record.Decoder) (StatsReply, error) {
	var s StatsReply
	s.Conns = d.Uvarint()
	s.TotalConns = d.Uvarint()
	s.InFlight = d.Uvarint()
	s.Ops = d.Uvarint()
	s.Shed = d.Uvarint()
	s.Cursors = d.Uvarint()
	s.CursorsReclaimed = d.Uvarint()
	s.P50Micros = d.Uvarint()
	s.P99Micros = d.Uvarint()
	s.Draining = d.Bool()
	if d.Err() == nil && d.Remaining() > 0 {
		n := d.Uvarint()
		if n > 64 {
			return StatsReply{}, fmt.Errorf("wire: %d op classes in stats reply", n)
		}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			var oc OpClassStats
			oc.Name = string(d.Blob())
			oc.Count = d.Uvarint()
			oc.P50Micros = d.Uvarint()
			oc.P99Micros = d.Uvarint()
			oc.MaxMicros = d.Uvarint()
			s.PerOp = append(s.PerOp, oc)
		}
	}
	if err := d.Err(); err != nil {
		return StatsReply{}, err
	}
	return s, nil
}
