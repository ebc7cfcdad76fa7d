package dnswire

import (
	"encoding/binary"
	"net/netip"
	"unicode/utf8"
)

// QueryView is a plain query read in place from its datagram: the header
// fields a response echoes and the one question, whose name stays in wire
// form inside the datagram. A server answers it without building a
// Message: AppendResponse writes the bytes the general path would encode.
type QueryView struct {
	ID               uint16
	Opcode           Opcode
	RecursionDesired bool
	Type             Type
	Class            Class
	// name is the question name's labels as sent, root label included.
	name []byte
}

// ParseQuery views msg as a plain query: QR clear; exactly one question
// and no other records; a question name of uncompressed labels of ASCII
// bytes other than '.', short enough for Encode to write back (255
// octets); and no byte after the question. Decode accepts every such
// message, and its name round-trips through presentation form to the
// same labels, lower-cased. ParseQuery reports false for anything else,
// which Decode may still accept.
func ParseQuery(msg []byte) (QueryView, bool) {
	if len(msg) < 12 {
		return QueryView{}, false
	}
	flags := binary.BigEndian.Uint16(msg[2:4])
	if flags&(1<<15) != 0 || binary.BigEndian.Uint16(msg[4:6]) != 1 ||
		msg[6]|msg[7]|msg[8]|msg[9]|msg[10]|msg[11] != 0 {
		return QueryView{}, false
	}
	off := 12
	for {
		if off >= len(msg) {
			return QueryView{}, false
		}
		l := int(msg[off])
		if l == 0 {
			break
		}
		if l > MaxLabelLen || off+1+l > len(msg) {
			return QueryView{}, false // a pointer, a reserved label type, or truncated
		}
		for _, c := range msg[off+1 : off+1+l] {
			if c >= utf8.RuneSelf || c == '.' {
				return QueryView{}, false
			}
		}
		off += 1 + l
	}
	name := msg[12 : off+1]
	if len(name) > MaxNameLen || off+5 != len(msg) {
		return QueryView{}, false
	}
	return QueryView{
		ID:               binary.BigEndian.Uint16(msg[0:2]),
		Opcode:           Opcode(flags >> 11 & 0xF),
		RecursionDesired: flags&(1<<8) != 0,
		Type:             Type(binary.BigEndian.Uint16(msg[off+1 : off+3])),
		Class:            Class(binary.BigEndian.Uint16(msg[off+3 : off+5])),
		name:             name,
	}, true
}

// AppendName appends the question name as Decode and CanonicalName give
// it — lower-cased, dot-separated, "." for the root — and returns the
// extended slice.
func (q *QueryView) AppendName(dst []byte) []byte {
	if len(q.name) == 1 {
		return append(dst, '.')
	}
	for p := 0; q.name[p] != 0; p += 1 + int(q.name[p]) {
		if p > 0 {
			dst = append(dst, '.')
		}
		dst = appendLower(dst, q.name[p+1:p+1+int(q.name[p])])
	}
	return dst
}

// AppendResponse appends the bytes NewResponse(m, rcode), with
// Header.Authoritative set to aa and AddAnswerA(name, addr, ttl) called
// for each of addrs, encodes to — m being the message Decode returns for
// q's datagram and name its question name — and returns the extended
// slice. It reports false, having appended nothing, where that Encode
// fails: an address that is neither IPv4 nor IPv6, or more than 65,535
// of them.
func (q *QueryView) AppendResponse(dst []byte, rcode RCode, aa bool, addrs []netip.Addr, ttl uint32) ([]byte, bool) {
	if len(addrs) > 0xFFFF {
		return dst, false
	}
	for _, a := range addrs {
		if !a.IsValid() {
			return dst, false
		}
	}
	h := Header{ID: q.ID, Response: true, Opcode: q.Opcode, Authoritative: aa,
		RecursionDesired: q.RecursionDesired, RCode: rcode}
	b := appendHeader(dst, &h, 1, len(addrs), 0, 0)
	b = appendLower(b, q.name)
	b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	for _, a := range addrs {
		// Every answer names the question: Encode compresses it to a
		// pointer to offset 12, except the root name, which is one byte.
		if len(q.name) == 1 {
			b = append(b, 0)
		} else {
			b = append(b, 0xC0, 12)
		}
		t, rdata := TypeA, 4
		if a.Is6() && !a.Is4In6() {
			t, rdata = TypeAAAA, 16
		}
		b = binary.BigEndian.AppendUint16(b, uint16(t))
		b = binary.BigEndian.AppendUint16(b, uint16(ClassIN))
		b = binary.BigEndian.AppendUint32(b, ttl)
		b = binary.BigEndian.AppendUint16(b, uint16(rdata))
		if t == TypeA {
			a4 := a.As4()
			b = append(b, a4[:]...)
		} else {
			a16 := a.As16()
			b = append(b, a16[:]...)
		}
	}
	return b, true
}

// appendLower appends s with its ASCII upper-case letters lowered. Label
// length bytes (at most 63) are never letters, so it lowers a wire-form
// name as well.
func appendLower(dst, s []byte) []byte {
	for _, c := range s {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
