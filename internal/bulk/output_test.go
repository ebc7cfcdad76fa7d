package bulk

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestAppendMillisMatchesStrconv is the differential test of the "ms"
// field's integer formatter: byte-identical to strconv's exact
// fixed-precision float formatting of ns/1e6 on every value tried —
// each nanosecond of the first 3 ms (and a little below zero), random
// values across the whole range, random half-microsecond ties, and
// values around the fast path's upper limit.
func TestAppendMillisMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(ns int64) {
		t.Helper()
		got = appendMillis(got[:0], time.Duration(ns))
		want = strconv.AppendFloat(want[:0], float64(ns)/1e6, 'f', 3, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("ns %d: got %s, want %s", ns, got, want)
		}
	}
	for ns := int64(-5000); ns < 3_000_000; ns++ {
		check(ns)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(rng.Int63n(1 << 62))
		check(rng.Int63n(1 << 40))
		check(rng.Int63n(1<<50/1000)*1000 + 500) // a tie
	}
	for _, lim := range []int64{exactMillisLimit, 1 << 53} {
		for ns := lim - 3000; ns < lim+3000; ns++ {
			check(ns)
		}
	}
	check(1<<63 - 1)
	check(-1 << 63)
}

func BenchmarkAppendMillis(b *testing.B) {
	buf := make([]byte, 0, 32)
	for i := 0; i < b.N; i++ {
		buf = appendMillis(buf[:0], time.Duration(i)*997)
	}
}
