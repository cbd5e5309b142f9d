// Package obs is the engine's observability substrate: named counters,
// gauges, and lock-free log2 latency histograms behind a Registry, plus
// a lightweight span API over a fixed-size ring-buffer event log for
// tracing background jobs (checkpoints, maintenance) and a
// slow-op log of spans past a threshold.
//
// The package is deliberately primitive — standard library only, no
// global state, no sampling, no exporters. Instruments are plain
// structs a component embeds and updates with single atomic operations;
// a Registry is a view over instruments for exposition (Prometheus text
// format, /debug/vars JSON), not a dependency of the hot path. Every
// recording operation (Counter.Add, Gauge.Set, Histogram.Observe,
// EventLog ring append) is allocation-free and safe from any goroutine;
// none takes an engine latch, so instrumentation is legal at any level
// of the latch hierarchy — internal/lint's latchio analyzer knows calls
// into this package are never device I/O.
//
// Naming follows the Prometheus convention: snake_case metric names
// prefixed tsb_, counters suffixed _total, durations as _seconds
// histograms. See docs/ARCHITECTURE.md ("Observability") for the full
// scheme and what each latency metric includes.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; it must not be copied after first use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; it must not be copied after first use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
