package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// radixInputs draws n values from one of several shapes that stress
// different parts of the radix sort: mixed signs and magnitudes, the
// special values, heavy duplicates, and narrow ranges that share most
// key bytes.
func radixInput(rng *rand.Rand, shape, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 * 0.5, -0x1p-1022 * 0.75, // subnormals
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	xs := make([]float64, n)
	for i := range xs {
		switch shape {
		case 0: // wide: sign, exponent and mantissa all random
			xs[i] = math.Float64frombits(rng.Uint64())
			if math.IsNaN(xs[i]) {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		case 1: // the special values and a few ordinary ones
			if rng.Intn(3) == 0 {
				xs[i] = rng.NormFloat64()
			} else {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		case 2: // heavy duplicates
			xs[i] = float64(rng.Intn(5)) - 2
		case 3: // a narrow positive range, like latencies in ms
			xs[i] = 1 + rng.Float64()*1e-3
		default: // report-like: log-spread magnitudes of both signs
			xs[i] = math.Exp(rng.NormFloat64()*6) * float64(1-2*rng.Intn(2))
		}
	}
	return xs
}

// TestSortFloat64sMatchesSortPackage is the radix sort's differential
// test: over random inputs of every shape and of lengths around the
// insertion-sort cutoff, its output equals sort.Float64s element by
// element under ==.
func TestSortFloat64sMatchesSortPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 3, 7, radixCutoff - 1, radixCutoff, radixCutoff + 1,
		2 * radixCutoff, 255, 256, 257, 1000, 4099, 70000}
	for shape := 0; shape < 5; shape++ {
		for _, n := range lengths {
			for rep := 0; rep < 4; rep++ {
				xs := radixInput(rng, shape, n)
				want := append([]float64(nil), xs...)
				sort.Float64s(want)
				sortFloat64s(xs)
				for i := range xs {
					if xs[i] != want[i] {
						t.Fatalf("shape %d n=%d rep %d: index %d is %v, sort.Float64s has %v",
							shape, n, rep, i, xs[i], want[i])
					}
				}
			}
		}
	}
}

// TestSortFloat64sAllocatesNothing pins the in-place contract the ECDF
// relies on to sort a million samples without growing the heap.
func TestSortFloat64sAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := radixInput(rng, 4, 50000)
	buf := make([]float64, len(xs))
	if allocs := testing.AllocsPerRun(5, func() {
		copy(buf, xs)
		sortFloat64s(buf)
	}); allocs != 0 {
		t.Fatalf("sortFloat64s allocated %v times per run", allocs)
	}
}

func TestECDFMergeGrowFinalize(t *testing.T) {
	var a, b ECDF
	a.AddAll([]float64{3, 1})
	b.AddAll([]float64{2, 5, 4})
	a.Grow(b.N())
	a.Merge(&b)
	a.Merge(&ECDF{})
	a.Finalize()
	got := a.Values()
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
	if b.N() != 3 || b.Values()[0] != 2 {
		t.Fatalf("Merge modified its argument: %v", b.Values())
	}
}
