package main

import "testing"

// TestParseBytes: -memory-budget takes a whole decimal count with an
// optional k/m/g suffix and rejects everything else. A malformed size
// must fail the flag, not parse to a smaller or negative budget (a
// negative or zero budget means unlimited, so nothing would spill).
func TestParseBytes(t *testing.T) {
	valid := []struct {
		in   string
		want int64
	}{
		{"", 0},
		{"0", 0},
		{"512", 512},
		{"512k", 512 << 10},
		{"4K", 4 << 10},
		{"256m", 256 << 20},
		{"256M", 256 << 20},
		{"2g", 2 << 30},
		{"2G", 2 << 30},
		{"8589934591g", 8589934591 << 30}, // the largest gigabyte count that fits
	}
	for _, c := range valid {
		got, err := parseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, nil", c.in, got, err, c.want)
		}
	}
	invalid := []string{
		// trailing text
		"256mb", "256MiB", "2gb", "12abc",
		// fractions and other notations
		"1.5g", "0.5", "0x10", "1e6", "1_000",
		// past int64, with and without a suffix
		"9999999999g", "8589934592g", "9223372036854775808",
		// negative, no number, spaces
		"-1", "-1k", "k", "g", " 5", "5 ",
	}
	for _, in := range invalid {
		if got, err := parseBytes(in); err == nil {
			t.Errorf("parseBytes(%q) = %d, nil; want an error", in, got)
		}
	}
}
