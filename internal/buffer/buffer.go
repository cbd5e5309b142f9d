// Package buffer provides the page cache layered over a
// storage.PageStore. The trees in this repository perform page-granular
// reads and writes; placing a Pool between a tree and its magnetic
// device turns repeated traversals of hot index pages into memory hits,
// exactly the role a database buffer manager plays over a real drive.
//
// The pool runs in one of two modes:
//
//   - Write-through (NewPool): Write updates both the cache and the
//     underlying device, so the device always holds the durable image
//     and the device-level space accounting stays exact. This is the
//     mode of the simulated devices (experiment E5 measures its hit
//     economics).
//
//   - Writeback (NewWritebackPool): Write updates only the cache and
//     marks the page dirty in the dirty-page table; the device is
//     written only when a checkpoint flushes. The pool is strictly
//     no-steal — a dirty page is never evicted and never reaches the
//     device outside a flush — which is what lets a durable database
//     keep its on-disk page file reconstructible to the last
//     checkpoint boundary (internal/pagestore). When every frame over
//     capacity is dirty, the pool grows past capacity rather
//     than violate no-steal (Stats.Overflows counts this; the
//     checkpoint cadence bounds it).
//
// Writes can be tagged with a flush group (Tagged) — the paged engine
// tags each shard's tree and the secondary indexes — so a checkpoint
// can pre-flush shard by shard (CaptureDirty with a tag) before its
// final boundary capture.
package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
)

// NoTag is the flush group of untagged writes.
const NoTag = -1

// Stats is a snapshot of cache effectiveness and dirty-table counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DirtyPages is the current size of the dirty-page table
	// (writeback mode only).
	DirtyPages int
	// FlushedPages counts dirty pages written back to the device by
	// flush captures.
	FlushedPages uint64
	// Overflows counts frames the pool kept past capacity because
	// every eviction candidate was dirty.
	Overflows uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no reads occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frame struct {
	page  uint64
	data  []byte
	dirty bool
	epoch uint64 // bumped on every write; lets a flush detect re-dirtying
	tag   int
}

// Pool is an LRU page cache implementing storage.PageStore. It is safe
// for concurrent use.
type Pool struct {
	mu        sync.Mutex //tsb:latch level=7 name=buffer-pool
	dev       storage.PageStore
	cap       int
	writeback bool
	lru       *list.List // front = most recently used
	byPg      map[uint64]*list.Element
	epoch     uint64
	nDirty    int

	// Cache-effectiveness counters are obs instruments — the one source
	// of truth; Stats() derives from them and RegisterMetrics names
	// them. They are mutated under mu but read lock-free at scrape time.
	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
	flushed   obs.Counter
	overflows obs.Counter
}

// NewPool returns a write-through pool caching up to capacity pages of
// dev.
func NewPool(dev storage.PageStore, capacity int) *Pool {
	return newPool(dev, capacity, false)
}

// NewWritebackPool returns a writeback (no-steal) pool over dev: writes
// buffer in the dirty-page table until a flush capture writes them
// back. See the package documentation.
func NewWritebackPool(dev storage.PageStore, capacity int) *Pool {
	return newPool(dev, capacity, true)
}

func newPool(dev storage.PageStore, capacity int, writeback bool) *Pool {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Pool{
		dev:       dev,
		cap:       capacity,
		writeback: writeback,
		lru:       list.New(),
		byPg:      make(map[uint64]*list.Element),
	}
}

// PageSize returns the underlying device's page size.
func (p *Pool) PageSize() int { return p.dev.PageSize() }

// Alloc allocates a page on the underlying device.
func (p *Pool) Alloc() (uint64, error) { return p.dev.Alloc() }

// insert upserts a frame and evicts if over capacity. Called under mu.
func (p *Pool) insert(page uint64, data []byte, dirty bool, tag int) *frame {
	if el, ok := p.byPg[page]; ok {
		fr := el.Value.(*frame)
		fr.data = data
		if dirty && !fr.dirty {
			p.nDirty++
		}
		if dirty {
			fr.dirty = true
			fr.tag = tag
			p.epoch++
			fr.epoch = p.epoch
		}
		p.lru.MoveToFront(el)
		return fr
	}
	p.evictSome(p.cap - 1)
	fr := &frame{page: page, data: data, dirty: dirty, tag: tag}
	if dirty {
		p.nDirty++
		p.epoch++
		fr.epoch = p.epoch
	}
	p.byPg[page] = p.lru.PushFront(fr)
	return fr
}

// evictSome drops least-recently-used clean frames until at
// most n remain, examining a bounded number of candidates so a mostly-
// dirty pool costs O(1) per insert, not a full LRU walk: if the
// candidates are all dirty, the pool grows past capacity
// (no-steal) and Stats.Overflows records it. MarkClean trims back.
func (p *Pool) evictSome(n int) {
	const scanLimit = 8
	el := p.lru.Back()
	for scanned := 0; p.lru.Len() > n && el != nil && scanned < scanLimit; scanned++ {
		prev := el.Prev()
		fr := el.Value.(*frame)
		if !fr.dirty {
			p.lru.Remove(el)
			delete(p.byPg, fr.page)
			p.evictions.Inc()
		}
		el = prev
	}
	if p.lru.Len() > n {
		p.overflows.Inc()
	}
}

// Read returns the page contents, from cache when possible.
func (p *Pool) Read(page uint64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byPg[page]; ok {
		p.lru.MoveToFront(el)
		p.hits.Inc()
		cached := el.Value.(*frame).data
		out := make([]byte, len(cached))
		copy(out, cached)
		return out, nil
	}
	p.misses.Inc()
	data, err := p.dev.Read(page)
	if err != nil {
		return nil, err
	}
	cached := make([]byte, len(data))
	copy(cached, data)
	p.insert(page, cached, false, NoTag)
	return data, nil
}

// Write stores the page contents: through to the device in
// write-through mode, into the dirty-page table in writeback mode.
func (p *Pool) Write(page uint64, data []byte) error { return p.write(page, data, NoTag) }

func (p *Pool) write(page uint64, data []byte, tag int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.writeback {
		if err := p.dev.Write(page, data); err != nil {
			return err
		}
	} else if len(data) > p.dev.PageSize() {
		return fmt.Errorf("%w: %d > page size %d", storage.ErrTooLarge, len(data), p.dev.PageSize())
	}
	cached := make([]byte, len(data))
	copy(cached, data)
	p.insert(page, cached, p.writeback, tag)
	return nil
}

// Free drops any cached copy (even a dirty one: a freed page's contents
// are dead) and releases the page on the device.
func (p *Pool) Free(page uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byPg[page]; ok {
		if el.Value.(*frame).dirty {
			p.nDirty--
		}
		p.lru.Remove(el)
		delete(p.byPg, page)
	}
	return p.dev.Free(page)
}

// Tagged returns a view of the pool whose writes carry the given flush
// group — the handle each shard's tree (and the secondary indexes) gets
// in a durable database, so a checkpoint can pre-flush shard by shard. Reads, allocation, and freeing are the shared pool's.
func (p *Pool) Tagged(tag int) storage.PageStore { return &taggedView{p: p, tag: tag} }

type taggedView struct {
	p   *Pool
	tag int
}

func (v *taggedView) PageSize() int                     { return v.p.PageSize() }
func (v *taggedView) Alloc() (uint64, error)            { return v.p.Alloc() }
func (v *taggedView) Read(page uint64) ([]byte, error)  { return v.p.Read(page) }
func (v *taggedView) Free(page uint64) error            { return v.p.Free(page) }
func (v *taggedView) Write(page uint64, b []byte) error { return v.p.write(page, b, v.tag) }

// DirtyPage is one captured entry of the dirty-page table: the page,
// a copy of its contents, and the write epoch the copy was taken at.
type DirtyPage struct {
	Page  uint64
	Data  []byte
	Epoch uint64
}

// CaptureDirty copies the dirty pages whose flush group is exactly tag
// (NoTag selects the untagged writes) out of the table: a memory-only
// snapshot the caller then writes to the device. It holds the pool latch
// only for the copy, never for I/O. The match is exact because the fuzzy
// checkpoint needs it: after a shard's group was captured at its own
// boundary LSN, re-dirtied pages of that shard must NOT ride along with a
// later group's capture, or the installed image would hold commits the
// boundary says are replay's to re-apply.
func (p *Pool) CaptureDirty(tag int) []DirtyPage {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nDirty == 0 {
		return nil
	}
	var out []DirtyPage
	for el := p.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if !fr.dirty || fr.tag != tag {
			continue
		}
		out = append(out, captureFrame(fr))
	}
	return out
}

// CaptureDirtyGroups captures every flush group's dirty pages in a
// single walk of the pool, keyed by tag — what a checkpoint's
// group-by-group pre-flush uses, so the scan cost is one O(pool) pass
// regardless of the group count, not one pass per group.
func (p *Pool) CaptureDirtyGroups() map[int][]DirtyPage {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nDirty == 0 {
		return nil
	}
	out := make(map[int][]DirtyPage)
	for el := p.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if !fr.dirty {
			continue
		}
		out[fr.tag] = append(out[fr.tag], captureFrame(fr))
	}
	return out
}

func captureFrame(fr *frame) DirtyPage {
	data := make([]byte, len(fr.data))
	copy(data, fr.data)
	return DirtyPage{Page: fr.page, Data: data, Epoch: fr.epoch}
}

// MarkClean retires captured pages from the dirty-page table once their
// contents are on the device — unless a write landed after the capture
// (the epoch moved), in which case the page stays dirty for the next
// flush.
func (p *Pool) MarkClean(pages []DirtyPage) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cp := range pages {
		el, ok := p.byPg[cp.Page]
		if !ok {
			continue
		}
		fr := el.Value.(*frame)
		if fr.dirty && fr.epoch == cp.Epoch {
			fr.dirty = false
			p.nDirty--
			p.flushed.Inc()
		}
	}
	// Cleaning may have created eviction candidates for an over-full
	// pool; trim back to capacity (a full walk, but once per flush).
	el := p.lru.Back()
	for p.lru.Len() > p.cap && el != nil {
		prev := el.Prev()
		fr := el.Value.(*frame)
		if !fr.dirty {
			p.lru.Remove(el)
			delete(p.byPg, fr.page)
			p.evictions.Inc()
		}
		el = prev
	}
}

// DirtyCount returns the current size of the dirty-page table.
func (p *Pool) DirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nDirty
}

// Stats returns a snapshot of the cache counters, derived from the
// pool's registered instruments.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Hits:         p.hits.Load(),
		Misses:       p.misses.Load(),
		Evictions:    p.evictions.Load(),
		DirtyPages:   p.nDirty,
		FlushedPages: p.flushed.Load(),
		Overflows:    p.overflows.Load(),
	}
}

// RegisterMetrics names the pool's instruments in r; the engine facade
// calls it once at open. The derived gauges take the pool mutex at
// scrape time only.
func (p *Pool) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("tsb_buffer_hits_total", "page reads served from the pool", &p.hits)
	r.RegisterCounter("tsb_buffer_misses_total", "page reads that went to the device", &p.misses)
	r.RegisterCounter("tsb_buffer_evictions_total", "clean frames evicted", &p.evictions)
	r.RegisterCounter("tsb_buffer_flushed_pages_total", "dirty pages written back by flush captures", &p.flushed)
	r.RegisterCounter("tsb_buffer_overflows_total", "frames kept past capacity (all candidates dirty)", &p.overflows)
	r.GaugeFunc("tsb_buffer_dirty_pages", "current dirty-page table size", func() float64 {
		return float64(p.DirtyCount())
	})
	r.GaugeFunc("tsb_buffer_hit_ratio", "hits / (hits + misses)", func() float64 {
		return Stats{Hits: p.hits.Load(), Misses: p.misses.Load()}.HitRate()
	})
}

var _ storage.PageStore = (*Pool)(nil)
