package core

import (
	"fmt"
	"sort"

	"repro/internal/record"
	"repro/internal/storage"
)

// TreeImage is the serializable metadata of a TSB-tree: everything needed
// to reattach to its (separately imaged) devices. Node contents live on
// the devices themselves; the image carries only the root pointer, the
// clock, the counters, and the §3.5 marked set.
type TreeImage struct {
	Root   storage.Addr
	Now    record.Timestamp
	Stats  Stats
	Marked []uint64

	Policy        Policy
	MaxKeySize    int
	MaxValueSize  int
	LeafCapacity  int
	IndexCapacity int
}

// Image captures the tree's metadata; a damaged tree has none.
func (t *Tree) Image() (TreeImage, error) {
	if t.damaged != nil {
		return TreeImage{}, t.damaged
	}
	img := TreeImage{
		Root:          t.root,
		Now:           t.now,
		Stats:         t.stats,
		Policy:        t.cfg.Policy,
		MaxKeySize:    t.cfg.MaxKeySize,
		MaxValueSize:  t.cfg.MaxValueSize,
		LeafCapacity:  t.cfg.LeafCapacity,
		IndexCapacity: t.cfg.IndexCapacity,
	}
	for page := range t.marked {
		img.Marked = append(img.Marked, page)
	}
	// Deterministic order: images of equivalent trees must be
	// byte-identical (the shard-equivalence property test compares
	// serialized images directly).
	sort.Slice(img.Marked, func(i, j int) bool { return img.Marked[i] < img.Marked[j] })
	return img, nil
}

// FromImage reattaches a tree to its devices. The devices must hold the
// state they held when the image was taken.
func FromImage(mag storage.PageStore, worm storage.WORMDevice, img TreeImage) (*Tree, error) {
	t := &Tree{
		mag:  mag,
		worm: worm,
		cfg: Config{
			Policy:        img.Policy,
			MaxKeySize:    img.MaxKeySize,
			MaxValueSize:  img.MaxValueSize,
			LeafCapacity:  img.LeafCapacity,
			IndexCapacity: img.IndexCapacity,
		},
		policy:  img.Policy,
		root:    img.Root,
		now:     img.Now,
		stats:   img.Stats,
		marked:  make(map[uint64]bool),
		pending: make(map[string]uint64),
	}
	t.entryCap = 2*img.MaxKeySize + 64
	t.level = t.newLevel()
	for _, page := range img.Marked {
		t.marked[page] = true
	}
	// Sanity: the root must be readable on the attached devices.
	if _, err := t.readNode(t.root); err != nil {
		return nil, fmt.Errorf("core: image does not match devices: %w", err)
	}
	return t, nil
}
