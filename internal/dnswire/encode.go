package dnswire

import (
	"encoding/binary"
	"fmt"
)

// Encode serializes m to wire format, applying name compression across the
// whole message.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 512))
}

// AppendEncode appends the bytes Encode returns for m to dst and returns
// the extended slice; compression offsets count from the start of the
// message, not of dst. On error it returns nil, as Encode does.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authority) > 0xFFFF || len(m.Additional) > 0xFFFF {
		return nil, ErrTooManyRecords
	}
	// buf starts empty at the end of dst, in dst's spare capacity, so its
	// offsets are the message's.
	buf := appendHeader(dst[len(dst):], &m.Header, len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional))
	ptrs := make(map[string]int)
	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, ptrs); err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range section {
			if buf, err = appendRR(buf, &section[i], ptrs); err != nil {
				return nil, fmt.Errorf("record %q: %w", section[i].Name, err)
			}
		}
	}
	// Still in dst's array unless it outgrew dst's capacity; either way
	// this append leaves dst followed by the message.
	return append(dst, buf...), nil
}

// AppendQuery appends the bytes NewQuery(id, name, t).Encode() returns to
// dst, without building the Message, and returns the extended slice. Its
// errors are Encode's; on error it returns dst unchanged. The question is
// the message's first name, so it is never compressed.
func AppendQuery(dst []byte, id uint16, name string, t Type) ([]byte, error) {
	h := Header{ID: id, Opcode: OpcodeQuery, RecursionDesired: true}
	b, err := appendName(appendHeader(dst, &h, 1, 0, 0, 0), name, nil)
	if err != nil {
		return dst, fmt.Errorf("question %q: %w", name, err)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(t))
	return binary.BigEndian.AppendUint16(b, uint16(ClassIN)), nil
}

// appendHeader appends the 12-octet header with the given section counts.
func appendHeader(b []byte, h *Header, qd, an, ns, ar int) []byte {
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xF) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode & 0xF)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(qd))
	b = binary.BigEndian.AppendUint16(b, uint16(an))
	b = binary.BigEndian.AppendUint16(b, uint16(ns))
	return binary.BigEndian.AppendUint16(b, uint16(ar))
}

func appendRR(buf []byte, rr *RR, ptrs map[string]int) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, ptrs); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)

	// Reserve RDLENGTH and fill it in after encoding RDATA, since
	// compression makes the length data-dependent.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	start := len(buf)

	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() && !rr.Addr.Is4In6() {
			return nil, fmt.Errorf("dnswire: A record with non-IPv4 addr %v", rr.Addr)
		}
		a4 := rr.Addr.As4()
		buf = append(buf, a4[:]...)
	case TypeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4In6() {
			return nil, fmt.Errorf("dnswire: AAAA record with non-IPv6 addr %v", rr.Addr)
		}
		a16 := rr.Addr.As16()
		buf = append(buf, a16[:]...)
	case TypeCNAME, TypeNS, TypePTR:
		if buf, err = appendName(buf, rr.Target, ptrs); err != nil {
			return nil, err
		}
	case TypeMX:
		buf = binary.BigEndian.AppendUint16(buf, rr.Pref)
		if buf, err = appendName(buf, rr.Target, ptrs); err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, s := range rr.Text {
			if len(s) > 255 {
				return nil, fmt.Errorf("dnswire: TXT string over 255 bytes")
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case TypeSOA:
		if rr.SOA == nil {
			return nil, fmt.Errorf("dnswire: SOA record without SOA data")
		}
		if buf, err = appendName(buf, rr.SOA.MName, ptrs); err != nil {
			return nil, err
		}
		if buf, err = appendName(buf, rr.SOA.RName, ptrs); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Serial)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Refresh)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Retry)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Expire)
		buf = binary.BigEndian.AppendUint32(buf, rr.SOA.Minimum)
	default:
		buf = append(buf, rr.Raw...)
	}

	rdlen := len(buf) - start
	if rdlen > 0xFFFF {
		return nil, ErrRDataOutOfRange
	}
	binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(rdlen))
	return buf, nil
}
