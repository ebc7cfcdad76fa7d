package trace

import (
	"bytes"
	"net/netip"
	"strconv"
	"time"
)

// Allocation-free field parsing for the TSV scanners. The hot path
// parses numbers and addresses directly from the scanner's byte buffer;
// every fallback calls the strconv/netip parser on a materialized
// string, so accepted inputs, computed values, and error text are
// exactly those of the historical strings.Split-based parser. Three
// kernels sit in front of the general parsers and decline anything
// outside the narrow shape they prove exact for: tabFields,
// parseMicros and parseIPv4 (FuzzTSVFieldKernels and the differential
// tests beside it check each against the parser it stands in for).

// microsSecsLimit bounds parseMicros's whole seconds: 2^21 s, about 24
// days.
const microsSecsLimit = 1 << 21

// parseMicros reads the writers' timestamp shape, digits.dddddd — whole
// seconds below 2^21 (leading zeros allowed), a point and exactly six
// fraction digits, no sign — as its exact nanosecond count N, and
// reports whether it could. parseSecs returns the same N: below 2^21 s,
// strconv.ParseFloat's correctly rounded value is within half an ulp,
// 2^-33 s, of the decimal, so before rounding the product with 1e9
// (exact) lies within 0.12 ns of N; N < 2^51, so rounding the product
// adds at most 0.125 ns; math.Round of a value within 0.25 ns of an
// integer returns it. Past 2^21 s that margin is gone, so larger values
// decline.
func parseMicros(b []byte) (time.Duration, bool) {
	n := len(b)
	if n < 8 || b[n-7] != '.' {
		return 0, false
	}
	var secs int64
	for _, c := range b[:n-7] {
		if c < '0' || c > '9' {
			return 0, false
		}
		if secs = secs*10 + int64(c-'0'); secs >= microsSecsLimit {
			return 0, false
		}
	}
	var us int64
	for _, c := range b[n-6:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		us = us*10 + int64(c-'0')
	}
	return time.Duration(secs*1e9 + us*1e3), true
}

// parseSecsBytes is parseSecs over a byte field; it materializes the
// string only when parseMicros declines.
func parseSecsBytes(b []byte) (time.Duration, error) {
	if d, ok := parseMicros(b); ok {
		return d, nil
	}
	return parseSecs(string(b))
}

// parseUintBytes is strconv.ParseUint(string(b), 10, bits) without the
// per-call string allocation on well-formed input.
func parseUintBytes(b []byte, bits int) (uint64, error) {
	max := uint64(1)<<bits - 1
	if len(b) == 0 {
		return strconv.ParseUint(string(b), 10, bits)
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' || v > (max-uint64(c-'0'))/10 {
			return strconv.ParseUint(string(b), 10, bits)
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

// parseIntBytes is strconv.ParseInt(string(b), 10, 64) without the
// per-call string allocation on well-formed input.
func parseIntBytes(b []byte) (int64, error) {
	i, n := 0, len(b)
	neg := false
	if i < n && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	if i == n {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v uint64
	cutoff := uint64(1) << 63 // |math.MinInt64|; the positive bound is checked below
	for ; i < n; i++ {
		c := b[i]
		if c < '0' || c > '9' || v > (cutoff-uint64(c-'0'))/10 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		return -int64(v), nil // v == 1<<63 is exactly MinInt64
	}
	if v >= cutoff {
		return strconv.ParseInt(string(b), 10, 64)
	}
	return int64(v), nil
}

// parseAddrBytes is netip.ParseAddr over a byte field; it materializes
// the string only when parseIPv4 declines.
func parseAddrBytes(b []byte) (netip.Addr, error) {
	if a, ok := parseIPv4(b); ok {
		return a, nil
	}
	return netip.ParseAddr(string(b))
}

// parseIPv4 reads a dotted quad of canonical octets — 0 to 255 in one
// to three digits, no leading zero — and reports whether it could.
// netip.ParseAddr reads exactly these bytes as the same IPv4 address;
// everything else (leading zeros, which it rejects, IPv6, zones,
// stray bytes) declines to it.
func parseIPv4(b []byte) (netip.Addr, bool) {
	var ip [4]byte
	i := 0
	for k := range ip {
		if k > 0 {
			if i == len(b) || b[i] != '.' {
				return netip.Addr{}, false
			}
			i++
		}
		start, v := i, 0
		for i < len(b) && i-start < 3 && '0' <= b[i] && b[i] <= '9' {
			v = v*10 + int(b[i]-'0')
			i++
		}
		if i == start || v > 255 || (i-start > 1 && b[start] == '0') {
			return netip.Addr{}, false
		}
		ip[k] = byte(v)
	}
	if i != len(b) {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4(ip), true
}

// maxFields is the widest line the TSV parsers accept: a DNS line's 11
// fields.
const maxFields = 11

// tabFields splits line on tabs into *f and returns the field count n;
// the semantics are strings.Split's: n tabs make n+1 fields, empty ones
// included. A line of more than maxFields fields still counts exactly,
// with the rest of the line in the last slot. Slots from n on keep what
// they held. f does not escape, so the caller's array stays on its
// stack, storing a field writes no heap pointer, and no call copies the
// array.
func tabFields(line []byte, f *[maxFields][]byte) (n int) {
	for n < maxFields-1 {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			break
		}
		f[n], line = line[:i], line[i+1:]
		n++
	}
	f[n] = line
	if n++; n == maxFields {
		n += bytes.Count(line, tabSep)
	}
	return n
}

var tabSep = []byte{'\t'}

// arenaBlock is the allocation unit of answerArena.
const arenaBlock = 4096

// answerArena packs per-record answer slices into shared fixed-size
// blocks: records get contiguous sub-slices, blocks are never
// reallocated (so earlier records stay valid), and the per-record
// backing-array allocation of append-per-answer parsing disappears.
type answerArena struct {
	block []Answer
}

// take copies scratch into the arena and returns the shared-backing
// slice, or nil for empty scratch (preserving the nil Answers of
// answerless records).
func (a *answerArena) take(scratch []Answer) []Answer {
	n := len(scratch)
	if n == 0 {
		return nil
	}
	if cap(a.block)-len(a.block) < n {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.block = make([]Answer, 0, size)
	}
	off := len(a.block)
	a.block = append(a.block, scratch...)
	return a.block[off : off+n : off+n]
}

// parseState is the reusable scratch a scanner threads through
// per-line parsing: the answer scratch and arena, and the name intern
// table.
type parseState struct {
	answers []Answer
	arena   answerArena
	names   *SymbolTable
}

func newParseState() *parseState {
	return &parseState{names: NewSymbolTable()}
}
