package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// summary is one metric over a run's samples: its median, quartiles,
// range and sample count. Samples are kept so -compare can tell whether
// every run of one side beat every run of the other.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{
		Unit: unit, Median: median(s), Q1: q1, Q3: q3,
		Min: s[0], Max: s[len(s)-1], N: len(s), Samples: xs,
	}
}

// spread is the quartile distance as a share of the median: the noise
// band the regression bounds are held against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median of sorted, non-empty xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles of sorted, non-empty xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads
// printed here match ones computed from the result lines in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// hist is a concurrent log-linear latency histogram: exact below 64 ns,
// then 64 buckets per power of two (relative error under 1.6%). It holds
// the per-query decorators' observations without keeping every sample.
type hist struct {
	count  atomic.Uint64
	sumNS  atomic.Int64
	counts [64 + 58*64]atomic.Uint64
}

func histBucket(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 1 // ≥ 6
	return 64 + (e-6)*64 + int((v>>(e-6))&63)
}

// histLow is the smallest value that falls into bucket b.
func histLow(b int) uint64 {
	if b < 64 {
		return uint64(b)
	}
	e, sub := (b-64)/64+6, uint64((b-64)%64)
	return (64 + sub) << (e - 6)
}

func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	h.counts[histBucket(uint64(d))].Add(1)
}

func (h *hist) sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// quantile returns the q-quantile (0 < q ≤ 1) as the low edge of the
// bucket holding the ceil(q·count)-th observation; 0 when empty.
func (h *hist) quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen >= rank {
			return time.Duration(histLow(b))
		}
	}
	return time.Duration(histLow(len(h.counts) - 1))
}
