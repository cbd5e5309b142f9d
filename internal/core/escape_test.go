package core

import (
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// sharingPages hands every reader of a page the same buffer, as a
// zero-copy page cache would. Nodes decode as views over the buffer a
// read returns, so over this store a key or value that left core as a
// view lets a caller's write corrupt the next read.
type sharingPages struct {
	storage.PageStore
	bufs map[uint64][]byte
}

func (s *sharingPages) Read(p uint64) ([]byte, error) {
	if b, ok := s.bufs[p]; ok {
		return b, nil
	}
	b, err := s.PageStore.Read(p)
	if err == nil {
		s.bufs[p] = b
	}
	return b, err
}

func (s *sharingPages) Write(p uint64, data []byte) error {
	delete(s.bufs, p)
	return s.PageStore.Write(p, data)
}

func (s *sharingPages) Free(p uint64) error {
	delete(s.bufs, p)
	return s.PageStore.Free(p)
}

// sharingWORM is sharingPages for the write-once device.
type sharingWORM struct {
	storage.WORMDevice
	bufs map[storage.Addr][]byte
}

func (s *sharingWORM) ReadAt(addr storage.Addr) ([]byte, error) {
	if b, ok := s.bufs[addr]; ok {
		return b, nil
	}
	b, err := s.WORMDevice.ReadAt(addr)
	if err == nil {
		s.bufs[addr] = b
	}
	return b, err
}

// versionBytes lists the byte strings a version hands its caller.
func versionBytes(vs ...record.Version) [][]byte {
	var out [][]byte
	for _, v := range vs {
		out = append(out, v.Key, v.Value)
	}
	return out
}

func rectBytes(r record.Rect) [][]byte {
	out := [][]byte{r.LowKey}
	if !r.HighKey.IsInfinite() {
		out = append(out, r.HighKey.Key())
	}
	return out
}

func viewBytes(v NodeView, err error) ([][]byte, error) {
	out := append(rectBytes(v.Rect), versionBytes(v.Versions...)...)
	for _, e := range v.Entries {
		out = append(out, rectBytes(e.Rect)...)
	}
	return out, err
}

// pageBytes returns the bytes of the page and of the page its Resume
// reads, so the resume bound a page keeps is checked too.
func pageBytes(p Page, err error) ([][]byte, error) {
	out := versionBytes(p.Versions...)
	if err == nil && p.Resume != nil {
		p, err = p.Resume()
		out = append(out, versionBytes(p.Versions...)...)
	}
	return out, err
}

// TestReadsNeverReturnViews overwrites every byte of every key, value and
// bound each public read returns, then reads again: the second read must
// be unchanged. Over sharing devices this holds only if core clones
// whatever it hands out of a decoded node.
func TestReadsNeverReturnViews(t *testing.T) {
	mag := &sharingPages{PageStore: storage.NewMagneticDisk(4096, storage.CostModel{}), bufs: map[uint64][]byte{}}
	worm := &sharingWORM{WORMDevice: storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512}), bufs: map[storage.Addr][]byte{}}
	tree, err := New(mag, worm, testConfig(PolicyLastUpdate))
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64
	for round := 0; round < 6; round++ {
		for k := 0; k < 40; k++ {
			ts++
			key := fmt.Sprintf("k%02d", k)
			if round == 5 && k%7 == 0 {
				del(t, tree, key, ts)
			} else {
				put(t, tree, key, ts, fmt.Sprintf("v%d-%d", round, k))
			}
		}
	}
	pending := record.Version{Key: record.StringKey("k01"), Time: record.TimePending, TxnID: 9, Value: []byte("pending")}
	if err := tree.Insert(pending); err != nil {
		t.Fatal(err)
	}
	if st := tree.Stats(); st.HistoricalNodes == 0 || st.Height < 2 {
		t.Fatalf("tree too small to reach historical and index nodes: %+v", st)
	}

	k := record.StringKey("k03")
	mid := record.Timestamp(ts / 2)
	all := record.InfiniteBound()
	one := func(v record.Version, ok bool, err error) ([][]byte, error) {
		if !ok {
			return nil, fmt.Errorf("not found (%v)", err)
		}
		return versionBytes(v), err
	}
	many := func(vs []record.Version, err error) ([][]byte, error) { return versionBytes(vs...), err }
	reads := []struct {
		name string
		read func() ([][]byte, error)
	}{
		{"Get", func() ([][]byte, error) { return one(tree.Get(k)) }},
		{"GetPending", func() ([][]byte, error) { return one(tree.GetPending(pending.Key, pending.TxnID)) }},
		{"GetAsOf", func() ([][]byte, error) { return one(tree.GetAsOf(k, mid)) }},
		{"ScanAsOf", func() ([][]byte, error) { return many(tree.ScanAsOf(mid, nil, all)) }},
		{"History", func() ([][]byte, error) { return many(tree.History(k)) }},
		{"ScanRange", func() ([][]byte, error) { return many(tree.ScanRange(nil, all, mid, record.Timestamp(ts))) }},
		{"ScanRangePage", func() ([][]byte, error) { return pageBytes(tree.ScanRangePage(k, all, mid, record.Timestamp(ts))) }},
		{"ScanPageAsOf", func() ([][]byte, error) { return pageBytes(tree.ScanPageAsOf(mid, k, all, false)) }},
		{"ScanPageAsOf/reverse", func() ([][]byte, error) {
			return pageBytes(tree.ScanPageAsOf(mid, nil, record.KeyBound(record.StringKey("k20")), true))
		}},
		{"Diff", func() ([][]byte, error) {
			cs, err := tree.Diff(nil, all, mid, record.Timestamp(ts))
			var out [][]byte
			for _, c := range cs {
				out = append(append(out, c.Key), versionBytes(c.Before, c.After)...)
			}
			return out, err
		}},
		{"drained pages", func() ([][]byte, error) { return many(drain(tree, mid, nil, all, false)) }},
		{"View root", func() ([][]byte, error) { return viewBytes(tree.View(tree.Root())) }},
		{"View leaf", func() ([][]byte, error) {
			n, err := tree.currentLeaf(k)
			if err != nil {
				return nil, err
			}
			return viewBytes(tree.View(n.addr))
		}},
		{"PendingWrites", func() ([][]byte, error) {
			var out [][]byte
			for _, p := range tree.PendingWrites() {
				out = append(out, p.Key)
			}
			return out, nil
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
