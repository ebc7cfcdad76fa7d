package trace

// Differential tests of the TSV field kernels (fastparse.go): each
// kernel either declines or agrees with the general parser it stands in
// for — parseIPv4 with netip.ParseAddr, parseMicros (and the whole
// parseSecsBytes chain) with parseSecs, tabFields with strings.Split.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// checkIPv4 fails t unless parseIPv4 declines b or reads what
// netip.ParseAddr reads, and unless parseAddrBytes, which runs the
// kernel first, returns netip.ParseAddr's value and error text.
func checkIPv4(t *testing.T, b []byte) {
	t.Helper()
	want, werr := netip.ParseAddr(string(b))
	if got, ok := parseIPv4(b); ok && (werr != nil || got != want) {
		t.Fatalf("parseIPv4(%q) = %v; netip.ParseAddr: %v, %v", b, got, want, werr)
	}
	got, err := parseAddrBytes(b)
	if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("parseAddrBytes(%q) = %v, %v; netip.ParseAddr: %v, %v", b, got, err, want, werr)
	}
}

// checkSecs fails t unless parseMicros declines b or returns parseSecs'
// value, and unless parseSecsBytes returns parseSecs' value and error
// text. It reports whether parseMicros took b.
func checkSecs(t *testing.T, b []byte) bool {
	t.Helper()
	want, werr := parseSecs(string(b))
	d, ok := parseMicros(b)
	if ok && (werr != nil || d != want) {
		t.Fatalf("parseMicros(%q) = %d; parseSecs: %d, %v", b, d, want, werr)
	}
	got, err := parseSecsBytes(b)
	if got != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("parseSecsBytes(%q) = %d, %v; parseSecs: %d, %v", b, got, err, want, werr)
	}
	return ok
}

// checkFields fails t unless tabFields splits line as strings.Split
// does: the same count, and the same fields up to the array's last
// slot, which holds the rest of a longer line.
func checkFields(t *testing.T, line []byte) {
	t.Helper()
	want := strings.Split(string(line), "\t")
	var f [maxFields][]byte
	n := tabFields(line, &f)
	if n != len(want) {
		t.Fatalf("tabFields(%q): %d fields, strings.Split %d", line, n, len(want))
	}
	last := min(n, maxFields) - 1
	for i := 0; i < last; i++ {
		if string(f[i]) != want[i] {
			t.Fatalf("tabFields(%q) field %d = %q, strings.Split %q", line, i, f[i], want[i])
		}
	}
	if rest := strings.Join(want[last:], "\t"); string(f[last]) != rest {
		t.Fatalf("tabFields(%q) field %d = %q, want %q", line, last, f[last], rest)
	}
}

func FuzzTSVFieldKernels(f *testing.F) {
	for _, s := range []string{
		"", "0", "1.000000", "2097151.999999", "2097152.000000", "0002097151.000000",
		"+1.000000", "-1.000000", "1.00000", "1.0000000", ".000000", "1.00000a", "1e3.000000",
		"0.0.0.0", "255.255.255.255", "256.1.1.1", "00.1.2.3", "1.2.3", "1.2.3.4.", "1.2.3.4%eth0",
		"::ffff:1.2.3.4", "2001:db8::1", "1.2.3.04",
		"a\tb", "\t\t", "1\t2\t3\t4\t5\t6\t7\t8\t9\t10\t11\t12\t13",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkIPv4(t, b)
		checkSecs(t, b)
		checkFields(t, b)
	})
}

// formatMicros appends us microseconds as the TSV writers write them.
func formatMicros(buf []byte, us int64) []byte {
	return appendSecs(buf[:0], time.Duration(us)*time.Microsecond)
}

// TestParseMicrosAroundItsBound: every microsecond within 3,000 of
// 2^21 s, and a million at random below it, reads exactly as parseSecs
// reads it; parseMicros takes exactly those below the bound.
func TestParseMicrosAroundItsBound(t *testing.T) {
	const bound = int64(microsSecsLimit) * 1e6
	var b []byte
	for us := bound - 3000; us <= bound+3000; us++ {
		b = formatMicros(b, us)
		if took := checkSecs(t, b); took != (us < bound) {
			t.Fatalf("parseMicros(%s) took=%v, bound %d s", b, took, microsSecsLimit)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		us := rng.Int63n(bound)
		b = formatMicros(b, us)
		if !checkSecs(t, b) {
			t.Fatalf("parseMicros declined %s", b)
		}
		if d, _ := parseMicros(b); d != time.Duration(us)*time.Microsecond {
			t.Fatalf("parseMicros(%s) = %d ns, want %d", b, d, us*1000)
		}
	}
}

// TestFieldKernelEdges: leading zeros, fractions of five and seven
// digits, signs, and the octets around the byte range each either take
// the kernel with the general parser's value or decline to it.
func TestFieldKernelEdges(t *testing.T) {
	for _, s := range []string{
		"0001.500000", "0000000000000000000000002.000001", "00.000000",
		"1.50000", "1.5000000", "12345.00000", "12345.0000000",
		"+1.500000", "-1.500000", "+0.000000", "-0.000000", "--1.000000", "1.-00000",
		"2097152.000000", "99999999999.000000", "1.500000\n",
	} {
		checkSecs(t, []byte(s))
	}
	for s, took := range map[string]bool{"1.500000": true, "0001.500000": true, "1.50000": false, "1.5000000": false, "+1.500000": false, "-1.500000": false} {
		if _, ok := parseMicros([]byte(s)); ok != took {
			t.Errorf("parseMicros(%q) took=%v, want %v", s, ok, took)
		}
	}
	for s, took := range map[string]bool{
		"255.255.255.255": true, "0.0.0.0": true, "10.0.0.255": true,
		"256.0.0.1": false, "1.2.3.256": false, "00.1.2.3": false, "1.2.3.00": false, "01.2.3.4": false,
		"1.2.3": false, "1.2.3.4.5": false, "1..2.3": false, "+1.2.3.4": false, "1.2.3.4 ": false,
	} {
		checkIPv4(t, []byte(s))
		if _, ok := parseIPv4([]byte(s)); ok != took {
			t.Errorf("parseIPv4(%q) took=%v, want %v", s, ok, took)
		}
	}
	for _, s := range []string{"", "a", "\t", "a\t", "\ta", "a\tb\tc", strings.Repeat("x\t", 10) + "y", strings.Repeat("x\t", 11) + "y", strings.Repeat("\t", 20)} {
		checkFields(t, []byte(s))
	}
}
