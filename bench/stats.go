package main

import (
	"math"
	"slices"
	"time"
)

// samples holds one op type's latencies in nanoseconds, in an array the
// client that fills it preallocated.
type samples struct {
	ns []uint32
}

func newSamples(capacity int) samples { return samples{ns: make([]uint32, 0, capacity)} }

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, uint32(min(d, math.MaxUint32))) }

func (s *samples) merge(o samples) { s.ns = append(s.ns, o.ns...) }

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted slice, in the slice's unit.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9)) // 99.9 % of 1000 is 999, not 999.0000000000001
	return float64(sorted[max(rank, 1)-1])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sortedNS returns the latencies in ascending order.
func (s samples) sortedNS() []uint32 {
	sorted := slices.Clone(s.ns)
	slices.Sort(sorted)
	return sorted
}

// p50us and p99us are percentiles over the whole measured phase, in
// microseconds. (A median over one-second windows of each window's p99
// was tried and spread more between identical runs, not less: a window
// holds too few samples beyond its 99th percentile.)
func (s samples) p50us() float64 { return percentile(s.sortedNS(), 50) / 1e3 }
func (s samples) p99us() float64 { return percentile(s.sortedNS(), 99) / 1e3 }

// topPercentile is the highest of 50, 90, 99, 99.9, 99.99 that still
// has at least ten samples beyond it, and its value in microseconds
// over the whole phase. It is printed, never gated.
func (s samples) topPercentile() (p float64, us float64) {
	sorted := s.sortedNS()
	p = 50
	for _, c := range []float64{90, 99, 99.9, 99.99} {
		if math.Round(float64(len(sorted))*(100-c))/100 >= 10 {
			p = c
		}
	}
	return p, percentile(sorted, p) / 1e3
}
