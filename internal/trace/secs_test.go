package trace

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestAppendSecsMatchesStrconv is appendSecs's differential test: every
// duration it formats must read exactly as strconv's exact six-decimal
// formatting of Duration.Seconds, densely over small values and across
// the integer path's bound, at random, at half-microsecond ties and one
// nanosecond either side of them, for negatives and at the extremes.
func TestAppendSecsMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(ns int64) {
		t.Helper()
		got = appendSecs(got[:0], time.Duration(ns))
		want = strconv.AppendFloat(want[:0], time.Duration(ns).Seconds(), 'f', 6, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("ns %d: got %s, want %s", ns, got, want)
		}
	}
	for ns := int64(-5000); ns < 1_000_000; ns++ {
		check(ns)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30_000; i++ {
		check(rng.Int63())
		check(rng.Int63n(exactSecsLimit))
		check(rng.Int63n(1 << 40))
		tie := rng.Int63n(exactSecsLimit/1000)*1000 + 500
		check(tie)
		check(tie - 1)
		check(tie + 1)
		check(-rng.Int63n(exactSecsLimit))
	}
	for _, lim := range []int64{exactSecsLimit, 1 << 53, 1 << 54} {
		for ns := lim - 3000; ns < lim+3000; ns++ {
			check(ns)
		}
	}
	check(1<<63 - 1)
	check(-1 << 63)
}

func BenchmarkAppendSecs(b *testing.B) {
	buf := make([]byte, 0, 32)
	for i := 0; i < b.N; i++ {
		buf = appendSecs(buf[:0], time.Duration(i)*997)
	}
}
