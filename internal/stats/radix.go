package stats

import (
	"math"
	"math/bits"
)

// radixCutoff is the bucket size below which sortFloat64s finishes with
// an insertion sort; smaller buckets are not worth a 256-way pass.
const radixCutoff = 48

// floatKey maps a float64 to a uint64 with the same order: positive
// values get their sign bit set, negative values have every bit
// flipped. Every NaN-free input orders exactly as under <, with -0
// just below +0. It is branch-free, since mixed signs would otherwise
// mispredict on every sample.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortFloat64s sorts NaN-free xs ascending in place. It is an MSD radix
// sort (American flag sort) over floatKey, one byte per level, so the
// result is exactly the ascending order sort.Float64s produces: equal
// values are bit-identical, except that -0 and +0, which compare
// equal, may come out in either order. It allocates nothing: each
// level permutes its bucket in place, and the recursion is at most
// eight levels deep.
func sortFloat64s(xs []float64) {
	if len(xs) <= radixCutoff {
		insertionSortFloats(xs)
		return
	}
	radixLevel(xs, 56)
}

// radixLevel sorts xs, whose keys agree on every bit above shift+7, by
// the byte at shift and then, bucket by bucket, by the bytes below it.
// A shift under 8 makes the last level overlap bits the previous one
// fixed, which is harmless: they are equal within the bucket.
func radixLevel(xs []float64, shift uint) {
	var count [256]int
	k0 := floatKey(xs[0])
	var diff uint64 // OR of every key's difference from the first
	for _, x := range xs {
		k := floatKey(x)
		diff |= k ^ k0
		count[byte(k>>shift)]++
	}
	if diff == 0 {
		return // all equal: nothing left to order
	}
	if count[byte(k0>>shift)] == len(xs) {
		// One bucket: drop straight to the highest bit on which the keys
		// differ instead of counting one bucket per byte on the way.
		top := 63 - bits.LeadingZeros64(diff)
		radixLevel(xs, uint(max(top-7, 0)))
		return
	}
	var next, end [256]int
	sum := 0
	for b, c := range count {
		next[b] = sum
		sum += c
		end[b] = sum
	}
	// Carry each misplaced value to the next free slot of its bucket and
	// pick up the value it displaces, until one belongs where the chain
	// started; every value is written once.
	for b := range next {
		for next[b] < end[b] {
			x := xs[next[b]]
			for d := byte(floatKey(x) >> shift); int(d) != b; d = byte(floatKey(x) >> shift) {
				xs[next[d]], x = x, xs[next[d]]
				next[d]++
			}
			xs[next[b]] = x
			next[b]++
		}
	}
	if shift == 0 {
		return
	}
	lower := uint(max(int(shift)-8, 0))
	start := 0
	for _, c := range count {
		bucket := xs[start : start+c]
		start += c
		switch {
		case c <= 1:
		case c <= radixCutoff:
			insertionSortFloats(bucket)
		default:
			radixLevel(bucket, lower)
		}
	}
}

func insertionSortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for ; j > 0 && xs[j-1] > x; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}
