package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples. Samples are accumulated with Add and the distribution is
// finalized (sorted) lazily on first query, or up front with Finalize.
// The zero value is an empty distribution, ready to use.
type ECDF struct {
	xs     []float64
	sorted bool
}

// NewECDF returns an empty distribution, optionally pre-sized.
func NewECDF(capacity int) *ECDF {
	return &ECDF{xs: make([]float64, 0, capacity)}
}

// Add accumulates one sample. NaNs are rejected with a panic because they
// poison quantile queries silently otherwise.
func (e *ECDF) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: ECDF.Add(NaN)")
	}
	e.xs = append(e.xs, x)
	e.sorted = false
}

// AddAll accumulates a batch of samples.
func (e *ECDF) AddAll(xs []float64) {
	for _, x := range xs {
		e.Add(x)
	}
}

// Merge appends o's samples to e, in the order o holds them. o is not
// modified.
func (e *ECDF) Merge(o *ECDF) {
	if len(o.xs) == 0 {
		return
	}
	e.xs = append(e.xs, o.xs...)
	e.sorted = false
}

// Grow reserves room for n more samples, so the next n Adds (or Merges
// totalling n) do not reallocate.
func (e *ECDF) Grow(n int) { e.xs = slices.Grow(e.xs, n) }

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.xs) }

// Finalize sorts the samples now rather than at the first query. Queries
// on a finalized ECDF only read it, so after Finalize (and until the
// next Add) it is safe for concurrent readers, and distinct ECDFs can be
// finalized concurrently.
func (e *ECDF) Finalize() { e.finalize() }

// finalize sorts in place (see sortFloat64s): no scratch proportional
// to the sample count, so sorting never raises the heap.
func (e *ECDF) finalize() {
	if !e.sorted {
		sortFloat64s(e.xs)
		e.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It panics on an empty
// distribution or out-of-range q.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: Quantile(%g) out of [0,1]", q))
	}
	e.finalize()
	if len(e.xs) == 1 {
		return e.xs[0]
	}
	pos := q * float64(len(e.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i >= len(e.xs)-1 {
		return e.xs[len(e.xs)-1]
	}
	return e.xs[i] + frac*(e.xs[i+1]-e.xs[i])
}

// Median is Quantile(0.5).
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Min returns the smallest sample.
func (e *ECDF) Min() float64 {
	if len(e.xs) == 0 {
		panic("stats: Min of empty ECDF")
	}
	e.finalize()
	return e.xs[0]
}

// Max returns the largest sample.
func (e *ECDF) Max() float64 {
	if len(e.xs) == 0 {
		panic("stats: Max of empty ECDF")
	}
	e.finalize()
	return e.xs[len(e.xs)-1]
}

// Mean returns the arithmetic mean.
func (e *ECDF) Mean() float64 {
	if len(e.xs) == 0 {
		panic("stats: Mean of empty ECDF")
	}
	sum := 0.0
	for _, x := range e.xs {
		sum += x
	}
	return sum / float64(len(e.xs))
}

// FractionAtMost returns P(X <= x), i.e. the CDF evaluated at x.
func (e *ECDF) FractionAtMost(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.finalize()
	// Count of samples <= x.
	n := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(n) / float64(len(e.xs))
}

// FractionAbove returns P(X > x).
func (e *ECDF) FractionAbove(x float64) float64 { return 1 - e.FractionAtMost(x) }

// Values returns the sorted samples. The returned slice is owned by the
// ECDF and must not be modified.
func (e *ECDF) Values() []float64 {
	e.finalize()
	return e.xs
}

// Points returns up to max (x, P(X<=x)) pairs evenly spaced in probability,
// suitable for plotting the CDF.
func (e *ECDF) Points(max int) []Point {
	if len(e.xs) == 0 || max <= 0 {
		return nil
	}
	e.finalize()
	if max > len(e.xs) {
		max = len(e.xs)
	}
	pts := make([]Point, 0, max)
	for i := 0; i < max; i++ {
		q := float64(i) / float64(max-1)
		if max == 1 {
			q = 1
		}
		pts = append(pts, Point{X: e.Quantile(q), Y: q})
	}
	return pts
}

// Point is a single (x, y) coordinate on a plotted curve.
type Point struct {
	X, Y float64
}
