package main

import (
	"math"
	"sort"
	"time"
)

// standardPercentiles are the percentiles a latency summary may name as
// the highest one its sample supports.
var standardPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// Percentiles summarises exact latency samples. Percentiles are
// nearest-rank: the p-th percentile is the smallest sample with at
// least p% of all samples at or below it, so every reported value is a
// latency that some request actually saw.
type Percentiles struct {
	sorted []float64 // milliseconds, ascending
}

// NewPercentiles sorts a copy of the samples, given in milliseconds.
func NewPercentiles(ms []float64) Percentiles {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return Percentiles{sorted: s}
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// N is the sample count.
func (p Percentiles) N() int { return len(p.sorted) }

// rank is the 1-based nearest rank of percentile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// At returns the q-th percentile (0 < q <= 100); NaN with no samples.
func (p Percentiles) At(q float64) float64 {
	n := len(p.sorted)
	if n == 0 {
		return math.NaN()
	}
	return p.sorted[rank(q, n)-1]
}

// Supported is the highest standard percentile with at least ten
// samples above its rank, or 0 when not even the median has.
func (p Percentiles) Supported() float64 {
	best := 0.0
	for _, q := range standardPercentiles {
		if n := len(p.sorted); n-rank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

// median of a float slice (0 when empty); the slice is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return NewPercentiles(xs).At(50)
}
