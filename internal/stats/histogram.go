package stats

import (
	"fmt"
	"math"
	"strings"
)

// LogHistogram buckets positive values into logarithmically spaced bins.
// It is used for delay distributions where interesting structure spans
// several orders of magnitude (e.g. 1 ms .. 100 s).
type LogHistogram struct {
	base    float64
	lo      float64
	counts  []uint64
	under   uint64
	total   uint64
	binsPer int
}

// NewLogHistogram creates a histogram starting at lo with binsPerDecade
// bins per factor of 10, covering decades decades.
func NewLogHistogram(lo float64, binsPerDecade, decades int) *LogHistogram {
	if lo <= 0 || binsPerDecade <= 0 || decades <= 0 {
		panic("stats: invalid LogHistogram parameters")
	}
	return &LogHistogram{
		base:    math.Pow(10, 1/float64(binsPerDecade)),
		lo:      lo,
		counts:  make([]uint64, binsPerDecade*decades+1),
		binsPer: binsPerDecade,
	}
}

// Add records one observation.
func (h *LogHistogram) Add(x float64) {
	h.total++
	if x < h.lo {
		h.under++
		return
	}
	f := math.Log(x/h.lo) / math.Log(h.base)
	idx := int(f)
	// Values at exact bucket boundaries belong to the bucket they open,
	// but log(base^i)/log(base) can land a hair under i; snap
	// near-integer ratios up so boundary placement is exact.
	if f-float64(idx) > 1-1e-9 {
		idx++
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
}

// Total returns the number of observations.
func (h *LogHistogram) Total() uint64 { return h.total }

// NumBuckets returns the number of finite buckets; the last bucket also
// absorbs observations beyond the covered range.
func (h *LogHistogram) NumBuckets() int { return len(h.counts) }

// Count returns the tally of bucket i, which covers
// [BucketLo(i), BucketLo(i+1)).
func (h *LogHistogram) Count(i int) uint64 { return h.counts[i] }

// Underflow returns the number of observations below the histogram's
// floor.
func (h *LogHistogram) Underflow() uint64 { return h.under }

// Base returns the per-bucket growth factor.
func (h *LogHistogram) Base() float64 { return h.base }

// BucketLo returns the lower bound of bucket i.
func (h *LogHistogram) BucketLo(i int) float64 {
	return h.lo * math.Pow(h.base, float64(i))
}

// String renders the histogram as an ASCII bar chart, one line per
// non-empty bucket.
func (h *LogHistogram) String() string {
	var b strings.Builder
	var maxCount uint64
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "%12s  %8d\n", fmt.Sprintf("<%.3g", h.lo), h.under)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", int(40*c/maxCount))
		}
		fmt.Fprintf(&b, "%12.4g  %8d %s\n", h.BucketLo(i), c, bar)
	}
	return b.String()
}
