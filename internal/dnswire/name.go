package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Errors returned by name encoding and decoding.
var (
	ErrNameTooLong     = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong    = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel      = errors.New("dnswire: empty label inside name")
	ErrTruncated       = errors.New("dnswire: message truncated")
	ErrPointerLoop     = errors.New("dnswire: compression pointer loop")
	ErrBadPointer      = errors.New("dnswire: compression pointer out of range")
	ErrReservedLabel   = errors.New("dnswire: reserved label type")
	ErrTrailingBytes   = errors.New("dnswire: trailing bytes after message")
	ErrTooManyRecords  = errors.New("dnswire: record count exceeds message size")
	ErrRDataOutOfRange = errors.New("dnswire: rdata length out of range")
)

// CanonicalName lower-cases a presentation-format name and strips one
// trailing dot (except for the root name "."). DNS names compare
// case-insensitively, and the analysis pipeline relies on canonical keys.
func CanonicalName(name string) string {
	if name == "." || name == "" {
		return "."
	}
	name = strings.ToLower(name)
	return strings.TrimSuffix(name, ".")
}

// appendName encodes name starting at the current end of msg, using and
// updating the compression table ptrs (suffix -> offset). Compression
// pointers may only reference offsets < 0x4000 per RFC 1035. Labels are
// checked in order, so the first empty or overlong one names the error.
//
// The table is keyed by lower-cased suffixes, cut from one lower-cased
// copy of the whole name: strings.ToLower maps rune by rune, no rune but
// '.' maps to '.', and no UTF-8 sequence spans a '.', so the text after
// the k-th dot of ToLower(name) is ToLower of the text after its k-th
// dot. ToLower returns an all-lower-case ASCII name itself, so such a
// name costs no copy. A nil table is neither searched nor filled.
func appendName(msg []byte, name string, ptrs map[string]int) ([]byte, error) {
	trimmed := strings.TrimSuffix(name, ".")
	// Wire length check: each label contributes len+1, plus the final root.
	wire := 1
	for rest, more := trimmed, trimmed != ""; more; {
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
		} else {
			more = false
		}
		if label == "" {
			return nil, ErrEmptyLabel
		}
		if len(label) > MaxLabelLen {
			return nil, fmt.Errorf("%w: %q", ErrLabelTooLong, label)
		}
		wire += len(label) + 1
	}
	if wire > MaxNameLen {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	lower := trimmed
	if ptrs != nil {
		lower = strings.ToLower(trimmed)
	}
	for rest, more := trimmed, trimmed != ""; more; {
		if off, ok := ptrs[lower]; ok {
			return append(msg, 0xC0|byte(off>>8), byte(off)), nil
		}
		if off := len(msg); off < 0x4000 && ptrs != nil {
			ptrs[lower] = off
		}
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
			lower = lower[strings.IndexByte(lower, '.')+1:]
		} else {
			more = false
		}
		msg = append(msg, byte(len(label)))
		msg = append(msg, label...)
	}
	return append(msg, 0), nil
}

// decodeName parses a possibly compressed name starting at off in msg.
// It returns the presentation-format name (lower-cased, no trailing dot,
// "." for root) and the offset just past the name in the original stream.
// The name is assembled in a stack buffer, ASCII lower-cased as it is
// copied, so it costs one string; a name with a byte above 0x7F then
// goes through strings.ToLower as a whole, which treats the ASCII bytes
// it already lowered as it would have, so the result is ToLower's exact
// one (invalid UTF-8 included).
func decodeName(msg []byte, off int) (string, int, error) {
	name, next, _, err := readName(msg, off)
	return name, next, err
}

// readName is decodeName that also counts the compression pointers it
// followed.
func readName(msg []byte, off int) (name string, next, chases int, err error) {
	var buf [MaxNameLen]byte // labels and dots: at most total-1 bytes
	n := 0
	ascii := true
	// next is the offset to resume at after the first compression pointer.
	next = -1
	total := 0
	for {
		if off >= len(msg) {
			return "", 0, 0, ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if next == -1 {
				next = off + 1
			}
			if n == 0 {
				return ".", next, chases, nil
			}
			name = string(buf[:n])
			if !ascii {
				name = strings.ToLower(name)
			}
			return name, next, chases, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, 0, ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			if ptr >= off {
				// Pointers must point strictly backwards; forward pointers
				// permit loops.
				return "", 0, 0, ErrBadPointer
			}
			chases++
			if chases > maxPointerChases {
				return "", 0, 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, 0, ErrReservedLabel
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, 0, ErrTruncated
			}
			total += l + 1
			if total > MaxNameLen {
				return "", 0, 0, ErrNameTooLong
			}
			if n > 0 {
				buf[n] = '.'
				n++
			}
			for _, c := range msg[off+1 : off+1+l] {
				if c >= utf8.RuneSelf {
					ascii = false
				} else if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				buf[n] = c
				n++
			}
			off += 1 + l
		}
	}
}
