// Package unlockpath exercises the release-on-every-path analyzer:
// defer and explicit-per-path releases pass; an early return or a
// fall-through end with the latch live is flagged; undeclared mutexes
// are checked too; a defer on one branch releases on that branch only.
package unlockpath

import "sync"

type box struct {
	mu sync.Mutex //tsb:latch level=5 name=box
}

func (b *box) deferred() {
	b.mu.Lock()
	defer b.mu.Unlock()
}

func (b *box) explicitEveryPath(x bool) {
	b.mu.Lock()
	if x {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
}

func (b *box) leakOnReturn(x bool) {
	b.mu.Lock()
	if x {
		return // want `unlockpath: "box" locked at .* is still held at this return`
	}
	b.mu.Unlock()
}

func (b *box) leakAtEnd() {
	b.mu.Lock()
} // want `unlockpath: "box" locked at .* is still held at this fall-through function end`

// Mutexes outside the declared hierarchy are held to the same rule.
type plain struct {
	mu sync.Mutex
}

func (p *plain) leak(x bool) {
	p.mu.Lock()
	if x {
		return // want `unlockpath: p\.mu locked at .* is still held at this return`
	}
	p.mu.Unlock()
}

// A defer on one branch covers that branch only: the path that skips
// it still returns with the latch held.
func (b *box) deferOnOneBranch(x bool) {
	b.mu.Lock()
	if x {
		defer b.mu.Unlock()
		return
	}
	return // want `unlockpath: "box" locked at .* is still held at this return`
}

func (b *box) deferInOneCase(n int) {
	b.mu.Lock()
	switch n {
	case 0:
		defer b.mu.Unlock()
		return
	}
} // want `unlockpath: "box" locked at .* is still held at this fall-through function end`
