package wire

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/record"
)

// Cursor protocol: OpOpenQuery ships a serialized query.Spec operator
// tree — a plain range scan is the one-node tree query.Scan(low, high) —
// and replies with a cursor id. OpQueryFetch returns one batch of rows
// from it; OpCloseCursor releases it early. There is no other way to
// read a range over the wire.
//
// A cursor keeps its live operator pipeline on the server between
// fetches: a composed stream (join, group-by, diff) has no single resume
// key to re-seek from, so no cursor resumes by key. That is safe under
// the engine's cursor contract — an idle operator holds no latch, only
// heap — and the cursor lease bounds an abandoned pipeline's lifetime.

// Spec node flag bits on the wire. Bit 1 once asked for a parallel
// scan; it stays reserved so the other bits keep their values, and a
// spec that sets it, or any bit not named here, is refused.
const (
	specReverse byte = 1 << iota
	specRetired
	specHasKeyRange
	specKeysOnly

	specKnown = specReverse | specHasKeyRange | specKeysOnly
)

// Row flag bits on the wire.
const (
	rowHasBefore byte = 1 << iota
	rowHasAfter
)

// AppendOpenQuery appends an OpOpenQuery request carrying the operator
// tree. Specs holding a Where closure cannot travel and are refused
// here, before any bytes move.
func AppendOpenQuery(buf []byte, s *query.Spec) ([]byte, error) {
	e := record.NewEncoder(buf)
	e.Byte(OpOpenQuery)
	nodes := 0
	if err := appendSpec(e, s, 1, &nodes); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

func appendSpec(e *record.Encoder, s *query.Spec, depth int, nodes *int) error {
	if s == nil {
		return fmt.Errorf("wire: nil spec node")
	}
	if depth > query.MaxSpecDepth {
		return fmt.Errorf("wire: spec deeper than %d", query.MaxSpecDepth)
	}
	if *nodes++; *nodes > query.MaxSpecNodes {
		return fmt.Errorf("wire: spec larger than %d nodes", query.MaxSpecNodes)
	}
	if s.Where != nil {
		return fmt.Errorf("wire: Where closures do not serialize; express wire filters as key ranges or value prefixes")
	}
	e.Byte(byte(s.Kind))
	var flags byte
	if s.Reverse {
		flags |= specReverse
	}
	if s.HasKeyRange {
		flags |= specHasKeyRange
	}
	if s.KeysOnly {
		flags |= specKeysOnly
	}
	e.Byte(flags)
	e.Key(s.Low)
	e.Bound(s.High)
	e.Time(s.At)
	e.Time(s.From)
	e.Time(s.To)
	e.Key(s.Key)
	e.Key(s.FilterLow)
	e.Bound(s.FilterHigh)
	e.Blob(s.ValuePrefix)
	e.Blob([]byte(s.Index))
	e.Key(s.SKey)
	e.Uvarint(s.Limit)
	// Child arity is implied by the kind; nothing else frames the tree.
	switch s.Kind {
	case query.OpScan, query.OpHistory, query.OpDiff:
		return nil
	case query.OpMergeJoin:
		if err := appendSpec(e, s.Left, depth+1, nodes); err != nil {
			return err
		}
		return appendSpec(e, s.Right, depth+1, nodes)
	default:
		return appendSpec(e, s.Input, depth+1, nodes)
	}
}

// DecodeOpenQuery decodes the operator tree after the op byte. The
// depth and node guards run during the decode itself, so a crafted
// frame is refused before it can balloon the tree; full semantic
// validation is query.Spec.Validate, run by Compile on the server.
func DecodeOpenQuery(d *record.Decoder) (*query.Spec, error) {
	nodes := 0
	s, err := decodeSpec(d, 1, &nodes)
	if err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeSpec(d *record.Decoder, depth int, nodes *int) (*query.Spec, error) {
	if depth > query.MaxSpecDepth {
		return nil, fmt.Errorf("wire: spec deeper than %d", query.MaxSpecDepth)
	}
	if *nodes++; *nodes > query.MaxSpecNodes {
		return nil, fmt.Errorf("wire: spec larger than %d nodes", query.MaxSpecNodes)
	}
	var s query.Spec
	s.Kind = query.OpKind(d.Byte())
	flags := d.Byte()
	if flags&^specKnown != 0 {
		return nil, fmt.Errorf("%w: unknown spec flag bits %#x", query.ErrBadSpec, flags&^specKnown)
	}
	s.Reverse = flags&specReverse != 0
	s.HasKeyRange = flags&specHasKeyRange != 0
	s.KeysOnly = flags&specKeysOnly != 0
	s.Low = d.Key()
	s.High = d.Bound()
	s.At = d.Time()
	s.From = d.Time()
	s.To = d.Time()
	s.Key = d.Key()
	s.FilterLow = d.Key()
	s.FilterHigh = d.Bound()
	s.ValuePrefix = d.Blob()
	s.Index = string(d.Blob())
	s.SKey = d.Key()
	s.Limit = d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(s.ValuePrefix) == 0 {
		s.ValuePrefix = nil // empty blob decodes as "no predicate"
	}
	switch s.Kind {
	case query.OpScan, query.OpHistory, query.OpDiff:
		return &s, nil
	case query.OpMergeJoin:
		var err error
		if s.Left, err = decodeSpec(d, depth+1, nodes); err != nil {
			return nil, err
		}
		if s.Right, err = decodeSpec(d, depth+1, nodes); err != nil {
			return nil, err
		}
		return &s, nil
	case query.OpFilter, query.OpProject, query.OpSecondaryJoin, query.OpGroupBy, query.OpLimit:
		var err error
		if s.Input, err = decodeSpec(d, depth+1, nodes); err != nil {
			return nil, err
		}
		return &s, nil
	}
	return nil, fmt.Errorf("wire: unknown spec kind %d", byte(s.Kind))
}

// AppendQueryFetch appends an OpQueryFetch request. maxRows 0 asks for
// the server's default batch.
func AppendQueryFetch(buf []byte, id, maxRows uint64) []byte {
	e := record.NewEncoder(buf)
	e.Byte(OpQueryFetch)
	e.Uvarint(id)
	e.Uvarint(maxRows)
	return e.Bytes()
}

// EncodeRow appends one query row — the fetch reply's repeating unit.
func EncodeRow(e *record.Encoder, r query.Row) {
	e.Key(r.Key)
	var flags byte
	if r.HasBefore {
		flags |= rowHasBefore
	}
	if r.HasAfter {
		flags |= rowHasAfter
	}
	e.Byte(flags)
	e.Uvarint(r.Count)
	e.Versions(r.Versions)
}

// DecodeRow decodes one query row.
func DecodeRow(d *record.Decoder) (query.Row, error) {
	var r query.Row
	r.Key = d.Key()
	flags := d.Byte()
	r.HasBefore = flags&rowHasBefore != 0
	r.HasAfter = flags&rowHasAfter != 0
	r.Count = d.Uvarint()
	r.Versions = d.Versions()
	if err := d.Err(); err != nil {
		return query.Row{}, err
	}
	return r, nil
}
