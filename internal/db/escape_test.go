package db

import (
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// TestReadsReturnPrivateCopies is core's TestReadsNeverReturnViews
// through the facade: overwriting every byte of every key and value a
// read returns must leave the next read unchanged.
func TestReadsReturnPrivateCopies(t *testing.T) {
	d, err := Open(Config{Shards: 2, LeafCapacity: 256, MaxKeySize: 16, MaxValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The secondary key is the value's first byte.
	if err := d.CreateSecondary("first", func(v []byte) record.Key { return record.Key(v[:1]) }); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if err := d.Update(func(tx *txn.Txn) error {
			for k := 0; k < 60; k++ {
				if err := tx.Put(record.Uint64Key(uint64(k)<<58), []byte(fmt.Sprintf("%c-round%d", 'a'+k%3, round))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	k := record.Uint64Key(7 << 58)
	now := d.Now()
	mid := now / 2
	all := record.InfiniteBound()
	many := func(vs []record.Version, err error) ([][]byte, error) { return versionBytes(vs...), err }
	reads := []struct {
		name string
		read func() ([][]byte, error)
	}{
		{"Get", func() ([][]byte, error) {
			v, _, err := d.Get(k)
			return versionBytes(v), err
		}},
		{"GetAsOf", func() ([][]byte, error) {
			v, _, err := d.GetAsOf(k, mid)
			return versionBytes(v), err
		}},
		{"ReadAt.Scan", func() ([][]byte, error) { return many(d.ReadAt(mid).Scan(nil, all)) }},
		{"History", func() ([][]byte, error) { return many(d.History(k)) }},
		{"Cursor", func() ([][]byte, error) { return many(d.Cursor(nil, all, ScanOptions{}).Collect()) }},
		{"Cursor window", func() ([][]byte, error) {
			return many(d.Cursor(nil, all, ScanOptions{From: mid, To: now}).Collect())
		}},
		{"Range", func() ([][]byte, error) {
			var vs []record.Version
			for v, err := range d.Range(nil, all, ScanOptions{At: mid}) {
				if err != nil {
					return nil, err
				}
				vs = append(vs, v)
			}
			return many(vs, nil)
		}},
		{"Query scan", func() ([][]byte, error) {
			op, err := d.Query(query.Scan(nil, all))
			if err != nil {
				return nil, err
			}
			defer op.Close()
			var out [][]byte
			for op.Next() {
				out = append(out, versionBytes(op.Row().Versions...)...)
			}
			return out, op.Err()
		}},
		{"QueryAt diff", func() ([][]byte, error) {
			rows, err := diffRows(d, nil, all, mid, now)
			var out [][]byte
			for _, r := range rows {
				out = append(append(out, r.Key), versionBytes(r.Versions...)...)
			}
			return out, err
		}},
		{"LookupSecondary", func() ([][]byte, error) {
			ks, err := d.LookupSecondary("first", record.Key("b"), now)
			out := make([][]byte, len(ks))
			for i, k := range ks {
				out[i] = k
			}
			return out, err
		}},
		{"ReadAt.Get", func() ([][]byte, error) {
			v, _, err := d.ReadAt(mid).Get(k)
			return versionBytes(v), err
		}},
	}
	for _, r := range reads {
		got, err := r.read()
		if err != nil || len(got) == 0 {
			t.Fatalf("%s: %d byte strings, %v", r.name, len(got), err)
		}
		want := fmt.Sprintf("%q", got)
		for _, b := range got {
			for i := range b {
				b[i] = '#'
			}
		}
		again, err := r.read()
		if s := fmt.Sprintf("%q", again); err != nil || s != want {
			t.Errorf("%s: writing to what it returned changed the next read:\n got %s (%v)\nwant %s", r.name, s, err, want)
		}
	}
}

// versionBytes lists the byte strings a version hands its caller.
func versionBytes(vs ...record.Version) [][]byte {
	var out [][]byte
	for _, v := range vs {
		out = append(out, v.Key, v.Value)
	}
	return out
}
