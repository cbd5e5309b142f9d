package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// levelTree builds a tree of height 3 over fault-injecting pages: 600 keys
// written once, then 1,800 updates of random keys, each committed at the
// next tick.
func levelTree(tb testing.TB) (*Tree, *storage.FaultyPages, []record.Key) {
	tb.Helper()
	faulty := storage.NewFaultyPages(storage.NewMagneticDisk(4096, storage.CostModel{}))
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := New(faulty, worm, Config{
		Policy: PolicyLastUpdate, MaxKeySize: 16, MaxValueSize: 32, LeafCapacity: 512, IndexCapacity: 2048,
	})
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]record.Key, 600)
	for i := range keys {
		keys[i] = record.StringKey(fmt.Sprintf("k%06d", i))
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 4*len(keys); i++ {
		k := keys[i%len(keys)]
		if i >= len(keys) {
			k = keys[rng.Intn(len(keys))]
		}
		if err := tree.Insert(record.Version{Key: k, Time: record.Timestamp(i + 1), Value: []byte("v-0123456789")}); err != nil {
			tb.Fatal(err)
		}
	}
	if tree.stats.Height < 3 {
		tb.Fatalf("tree of height %d", tree.stats.Height)
	}
	return tree, faulty, keys
}

// levelMatchesPages checks that every node the level holds encodes to the
// same bytes as a fresh decode of its page.
func levelMatchesPages(t *testing.T, tree *Tree) {
	t.Helper()
	held := maps.Clone(tree.level.hist)
	if tree.level.epoch == tree.indexEpoch {
		maps.Copy(held, tree.level.cur)
	}
	if len(held) == 0 {
		t.Fatal("the level holds no node")
	}
	for addr, n := range held {
		fresh, err := tree.decode(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeNode(n), encodeNode(fresh)) {
			t.Errorf("level node %s differs from its page", addr)
		}
	}
}

func TestIndexLevelServesPointReads(t *testing.T) {
	tree, _, keys := levelTree(t)
	checkOK(t, tree)
	tree.Get(keys[0]) // the root and its child join the level
	d0, a0 := tree.nodeDecodes.Load(), tree.NodeAccesses()
	for _, k := range keys[:100] {
		if _, ok, err := tree.Get(k); err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
	}
	// Commits and gets write no index node: each get decodes its leaf
	// and nothing else, and accesses one node per level.
	if got := tree.nodeDecodes.Load() - d0; got != 100 {
		t.Errorf("100 gets decoded %d nodes, want 100", got)
	}
	if got := tree.NodeAccesses() - a0; got != uint64(100*tree.stats.Height) {
		t.Errorf("100 gets accessed %d nodes, want %d", got, 100*tree.stats.Height)
	}
	checkOK(t, tree)
}

// TestIndexLevelConcurrentReaders runs readers through the level under a
// shared latch while a writer, under the exclusive latch, inserts fresh
// keys whose splits keep retiring the level's current nodes. Every read
// must still see the loaded values, and the level must end equal to the
// pages.
func TestIndexLevelConcurrentReaders(t *testing.T) {
	tree, _, keys := levelTree(t)
	want := make(map[string]string)
	for _, k := range keys {
		v, _, err := tree.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want[string(k)] = string(v.Value)
	}
	var latch sync.RWMutex
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				k := keys[rng.Intn(len(keys))]
				latch.RLock()
				v, ok, err := tree.Get(k)
				p, perr := tree.ScanPageAsOf(record.TimePending, k, record.InfiniteBound(), false)
				latch.RUnlock()
				if err != nil || perr != nil || !ok || string(v.Value) != want[string(k)] || len(p.Versions) == 0 || !p.Versions[0].Key.Equal(k) {
					t.Errorf("read of %s: %v %v %v %v, page %d versions", k, v, ok, err, perr, len(p.Versions))
					return
				}
			}
		}(rand.New(rand.NewSource(int64(r))))
	}
	epoch := tree.indexEpoch
	for i := 0; i < 1500; i++ {
		latch.Lock()
		err := tree.Insert(record.Version{Key: record.StringKey(fmt.Sprintf("k%06d", 1000+i)), Time: record.Timestamp(1e6 + i), Value: []byte("fresh")})
		latch.Unlock()
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if tree.indexEpoch == epoch {
		t.Fatal("the writer wrote no index node")
	}
	levelMatchesPages(t, tree)
	checkOK(t, tree)
}

// TestSplitWriteFaultLeavesLevelExact refuses a page write in the middle
// of a split: the parent's write after a leaf key split has rewritten
// both halves, and the first write of an index node's split. A split
// changes copies of the index nodes it read through the level, never the
// nodes themselves, so the level still equals every page, and a read
// through it sees what a read of the pages alone sees.
func TestSplitWriteFaultLeavesLevelExact(t *testing.T) {
	// Fresh keys sort after every loaded one and fill the last leaf.
	fresh := func(i int) record.Version {
		return record.Version{Key: record.StringKey(fmt.Sprintf("n%06d", i)), Time: record.Timestamp(1e6 + i), Value: []byte("fresh")}
	}
	t.Run("leaf", func(t *testing.T) {
		tree, faulty, keys := levelTree(t)
		for _, k := range keys {
			tree.Get(k) // every current index node joins the level
		}
		for i := 0; ; i++ {
			if i == 2000 {
				t.Fatal("no key split reached its parent's write")
			}
			st := tree.stats
			// Once the last leaf holds only fresh keys it key splits:
			// it writes its two halves, then the parent. A time split
			// writes the leaf and the parent, so the third write is
			// the insert's own.
			faulty.FailAfter("write", 3)
			err := tree.Insert(fresh(i))
			faulty.Clear()
			if err == nil {
				continue
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("insert %d: %v", i, err)
			}
			if tree.stats.LeafKeySplits > st.LeafKeySplits {
				break
			}
			if tree.stats.IndexKeySplits+tree.stats.IndexTimeSplits != st.IndexKeySplits+st.IndexTimeSplits {
				t.Fatalf("insert %d failed in an index split: %v", i, err)
			}
		}
		checkLevelAfterFault(t, tree, keys)
	})
	t.Run("index", func(t *testing.T) {
		tree, faulty, keys := levelTree(t)
		for i := 0; ; i++ {
			if i == 5000 {
				t.Fatal("no index node filled up")
			}
			// The descent splits the first index node on its path
			// that lacks room for a child's split, and that split's
			// first write is the node's own.
			full := false
			for n, _ := tree.readNode(tree.root); !n.leaf && !full; n, _ = tree.readNode(n.entries[findCurrentEntry(n, fresh(i).Key)].child) {
				full = tree.size(n)+3*tree.entryCap > tree.cfg.IndexCapacity
			}
			if full {
				faulty.FailAfter("write", 1)
			}
			err := tree.Insert(fresh(i))
			faulty.Clear()
			if full {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("insert %d into a full index node: %v", i, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		checkLevelAfterFault(t, tree, keys)
	})
}

// checkLevelAfterFault checks that every node the level holds equals its
// page, and that a tree attached to the same pages with an empty level
// reads exactly what the tree with the level reads.
func checkLevelAfterFault(t *testing.T, tree *Tree, keys []record.Key) {
	t.Helper()
	levelMatchesPages(t, tree)
	fresh, err := FromImage(tree.mag, tree.worm, tree.Image())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		got, gotOK, gotErr := tree.Get(k)
		want, wantOK, wantErr := fresh.Get(k)
		if gotOK != wantOK || (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("Get(%s) through the level = %v, %v, %v; from the pages = %v, %v, %v",
				k, got, gotOK, gotErr, want, wantOK, wantErr)
		}
	}
}

// BenchmarkIndexLevel measures reads through the shared index level at
// 1, 2 and 4 concurrent readers, each read under a shared read latch as
// the db layer's shard latch is taken: a point get (op=get), and a read of
// the root alone, which the level serves (op=hit).
func BenchmarkIndexLevel(b *testing.B) {
	tree, _, keys := levelTree(b)
	var latch sync.RWMutex
	ops := []struct {
		name string
		read func(rng *rand.Rand) error
	}{
		{"get", func(rng *rand.Rand) error { _, _, err := tree.Get(keys[rng.Intn(len(keys))]); return err }},
		{"hit", func(*rand.Rand) error { _, err := tree.readNode(tree.root); return err }},
	}
	for _, op := range ops {
		for _, g := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("op=%s/goroutines=%d", op.name, g), func(b *testing.B) {
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(rng *rand.Rand) {
						defer wg.Done()
						for i := w; i < b.N; i += g {
							latch.RLock()
							err := op.read(rng)
							latch.RUnlock()
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(rand.New(rand.NewSource(int64(w))))
				}
				wg.Wait()
			})
		}
	}
}
