package wire

import (
	"errors"
	"testing"

	"repro/internal/query"
	"repro/internal/record"
)

func mustOpenQuery(t *testing.T, s *query.Spec) []byte {
	t.Helper()
	b, err := AppendOpenQuery(nil, s)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return b
}

func TestQuerySpecRoundTrip(t *testing.T) {
	specs := []*query.Spec{
		query.Scan(record.Key("a"), record.KeyBound(record.Key("z"))),
		query.Window(nil, record.InfiniteBound(), 5, 99).GroupBy(),
		query.History(record.Key("k")).WithLimit(7),
		query.Diff(nil, record.InfiniteBound(), 3, 9),
		query.Scan(nil, record.InfiniteBound()).
			Filter(record.Key("b"), record.KeyBound(record.Key("d"))).
			FilterValuePrefix([]byte("pre")).
			Project(),
		query.Scan(nil, record.InfiniteBound()).
			Join(query.Scan(record.Key("m"), record.InfiniteBound())),
		query.Scan(nil, record.InfiniteBound()).
			JoinSecondary("byclass", record.Key("x"), 42),
	}
	for i, s := range specs {
		b := mustOpenQuery(t, s)
		d := record.NewDecoder(b)
		if op := d.Byte(); op != OpOpenQuery {
			t.Fatalf("spec %d: op byte %d", i, op)
		}
		got, err := DecodeOpenQuery(d)
		if err != nil {
			t.Fatalf("spec %d: decode: %v", i, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("spec %d: decoded spec invalid: %v", i, err)
		}
		// Re-encode: the round trip must be byte-stable.
		b2, err := AppendOpenQuery(nil, got)
		if err != nil {
			t.Fatalf("spec %d: re-append: %v", i, err)
		}
		if string(b) != string(b2) {
			t.Fatalf("spec %d: re-encode differs\n  %x\n  %x", i, b, b2)
		}
	}
}

// TestQuerySpecRejectsUnknownFlags: a spec node whose flag byte sets the
// retired parallel bit, or any bit the codec does not name, is the typed
// bad-request, not a silently narrowed spec.
func TestQuerySpecRejectsUnknownFlags(t *testing.T) {
	b := mustOpenQuery(t, query.Scan(nil, record.InfiniteBound()))
	const flagsAt = 1 // the body after the op byte: kind, then flags
	for _, bit := range []byte{specRetired, 1 << 4, 1 << 7} {
		body := append([]byte(nil), b[1:]...)
		body[flagsAt] |= bit
		_, err := DecodeOpenQuery(record.NewDecoder(body))
		if !errors.Is(err, query.ErrBadSpec) {
			t.Fatalf("flag bit %#02x: err = %v, want ErrBadSpec", bit, err)
		}
	}
	// The named bits still decode.
	body := append([]byte(nil), b[1:]...)
	body[flagsAt] |= specReverse | specKeysOnly
	if _, err := DecodeOpenQuery(record.NewDecoder(body)); err != nil {
		t.Fatalf("named flag bits refused: %v", err)
	}
}

func TestQuerySpecRejectsWhere(t *testing.T) {
	s := query.Scan(nil, record.InfiniteBound()).FilterWhere(func(query.Row) bool { return true })
	if _, err := AppendOpenQuery(nil, s); err == nil {
		t.Fatal("Where closure serialized")
	}
}

func TestQueryRowRoundTrip(t *testing.T) {
	rows := []query.Row{
		{Key: record.Key("a"), Versions: []record.Version{{Key: record.Key("a"), Time: 7, Value: []byte("v")}}},
		{Key: record.Key("b"), Count: 9, HasBefore: true, HasAfter: true},
		{Key: nil},
	}
	for i, r := range rows {
		e := record.NewEncoder(nil)
		EncodeRow(e, r)
		got, err := DecodeRow(record.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if string(got.Key) != string(r.Key) || got.Count != r.Count ||
			got.HasBefore != r.HasBefore || got.HasAfter != r.HasAfter ||
			len(got.Versions) != len(r.Versions) {
			t.Fatalf("row %d: %+v != %+v", i, got, r)
		}
	}
}

// FuzzQueryWire hammers the spec decoder with arbitrary bytes: it must
// return a typed error or a tree that Validate can judge — never panic,
// never balloon. Valid encodings seed the corpus so mutation explores
// the interesting paths.
func FuzzQueryWire(f *testing.F) {
	seed := [][]byte{
		{},
		{0xff},
		{byte(query.OpScan)},
	}
	seedSpecs := []*query.Spec{
		query.Scan(nil, record.InfiniteBound()),
		query.Scan(record.Key("a"), record.KeyBound(record.Key("b"))).
			Filter(record.Key("a"), record.KeyBound(record.Key("b"))).GroupBy(),
		query.History(record.Key("k")),
		query.Diff(nil, record.InfiniteBound(), 1, 2).WithLimit(3),
		query.Scan(nil, record.InfiniteBound()).Join(query.Scan(nil, record.InfiniteBound())),
	}
	for _, s := range seedSpecs {
		b, err := AppendOpenQuery(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(seed, b[1:]) // fuzz the body after the op byte
	}
	// A scan whose flag byte sets the retired parallel bit, and one
	// setting an unknown high bit: both must be refused.
	for _, bit := range []byte{specRetired, 1 << 7} {
		b := append([]byte(nil), seed[3]...)
		b[1] |= bit
		seed = append(seed, b)
	}
	for _, b := range seed {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeOpenQuery(record.NewDecoder(data))
		if err != nil {
			return // refused: the typed bad-request path
		}
		// Whatever decoded must survive validation and re-encoding
		// without panicking; Validate bounds the walk itself.
		if verr := s.Validate(); verr == nil {
			if _, aerr := AppendOpenQuery(nil, s); aerr != nil {
				t.Fatalf("valid decoded spec failed to re-encode: %v", aerr)
			}
		}
	})
}
