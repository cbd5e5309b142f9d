package core

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
)

// indexLevel is a tree's one shared level of decoded index nodes, which
// readNode serves every read and every write from, so an index node is
// decoded once per index epoch rather than once per operation. A current
// index node changes only through writeCurrent, which bumps indexEpoch
// once its write has landed, so the current nodes are valid while the
// epoch holds. A historical node never changes (§3), so historical
// index nodes stay across epochs, up to histCap of them. Leaves are never
// kept. A node here is shared with concurrent readers: a writer changes a
// clone (node.clone), never the node, so a refused write leaves every
// node equal to its page. The mutex is taken inside the tree's latch and
// acquires nothing; device reads and decodes happen outside it.
type indexLevel struct {
	mu      sync.Mutex             //tsb:latch level=7 name=index-level
	epoch   uint64                 // the indexEpoch cur holds nodes of
	cur     map[storage.Addr]*node // current index nodes
	hist    map[storage.Addr]*node // historical index nodes
	histCap int

	hits, misses, evictions obs.Counter
}

// newLevel returns an empty level. It keeps as many historical nodes as
// one full index node can reference: the historical children of any one
// current index node.
func (t *Tree) newLevel() *indexLevel {
	return &indexLevel{
		cur:     make(map[storage.Addr]*node),
		hist:    make(map[storage.Addr]*node),
		histCap: t.cfg.IndexCapacity / t.entryCap,
	}
}

// get returns the node at addr if the level holds it at epoch.
func (l *indexLevel) get(addr storage.Addr, epoch uint64) *node {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.hist[addr]; n != nil || l.epoch != epoch {
		return n
	}
	return l.cur[addr]
}

// put keeps index node n, decoded at epoch. A full historical half first
// drops an arbitrary node.
func (l *indexLevel) put(n *node, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !n.addr.IsWORM() {
		if l.epoch != epoch {
			clear(l.cur)
			l.epoch = epoch
		}
		l.cur[n.addr] = n
		return
	}
	for a := range l.hist {
		if len(l.hist) < l.histCap {
			break
		}
		delete(l.hist, a)
		l.evictions.Inc()
	}
	l.hist[n.addr] = n
}
