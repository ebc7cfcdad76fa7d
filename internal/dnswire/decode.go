package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Decode parses a wire-format DNS message. It fails on any malformed
// construct rather than guessing, and rejects trailing garbage.
func Decode(msg []byte) (*Message, error) {
	m, off, err := decode(msg)
	if err != nil {
		return nil, err
	}
	if off != len(msg) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(msg)-off)
	}
	return m, nil
}

// DecodePrefix parses a DNS message that may be followed by unrelated
// bytes (e.g. when carried in a larger buffer) and returns the number of
// bytes consumed.
func DecodePrefix(msg []byte) (*Message, int, error) {
	return decode(msg)
}

func decode(msg []byte) (*Message, int, error) {
	if len(msg) < 12 {
		return nil, 0, ErrTruncated
	}
	m := &Message{}
	m.Header.ID = binary.BigEndian.Uint16(msg[0:2])
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Opcode = Opcode(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))
	ns := int(binary.BigEndian.Uint16(msg[8:10]))
	ar := int(binary.BigEndian.Uint16(msg[10:12]))

	// Cheap sanity bound: each question needs >= 5 bytes, each RR >= 11.
	if 5*qd+11*(an+ns+ar) > len(msg)-12 {
		return nil, 0, ErrTooManyRecords
	}

	off := 12
	var err error
	if qd > 0 {
		m.Questions = make([]Question, qd)
	}
	// first is the first question's name, which starts at offset 12. A
	// record name that is only a pointer there (0xC00C, what a compressing
	// encoder writes for an answer to the question) decodes to it with
	// one chase more, so unless that chase would pass the limit the
	// record reuses its string.
	var first string
	for i := 0; i < qd; i++ {
		q := &m.Questions[i]
		var chases int
		if q.Name, off, chases, err = readName(msg, off); err != nil {
			return nil, 0, fmt.Errorf("question %d: %w", i, err)
		}
		if off+4 > len(msg) {
			return nil, 0, fmt.Errorf("question %d: %w", i, ErrTruncated)
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
		off += 4
		if i == 0 && chases < maxPointerChases {
			first = q.Name
		}
	}
	sections := [3]struct {
		n   int
		dst *[]RR
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}}
	for si, sec := range sections {
		if sec.n > 0 {
			*sec.dst = make([]RR, sec.n)
		}
		for i := 0; i < sec.n; i++ {
			if off, err = decodeRR(msg, off, first, &(*sec.dst)[i]); err != nil {
				return nil, 0, fmt.Errorf("section %d record %d: %w", si, i, err)
			}
		}
	}
	return m, off, nil
}

// decodeRR decodes the record at off into rr, returning the offset past
// it. first is the message's first question name, "" without one.
func decodeRR(msg []byte, off int, first string, rr *RR) (int, error) {
	var err error
	if first != "" && off+1 < len(msg) && msg[off] == 0xC0 && msg[off+1] == 12 {
		rr.Name, off = first, off+2
	} else if rr.Name, off, err = decodeName(msg, off); err != nil {
		return 0, err
	}
	if off+10 > len(msg) {
		return 0, ErrTruncated
	}
	rr.Type = Type(binary.BigEndian.Uint16(msg[off : off+2]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
	off += 10
	if off+rdlen > len(msg) {
		return 0, ErrTruncated
	}
	rdata := msg[off : off+rdlen]
	end := off + rdlen

	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return 0, fmt.Errorf("%w: A rdata %d bytes", ErrRDataOutOfRange, rdlen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case TypeAAAA:
		if rdlen != 16 {
			return 0, fmt.Errorf("%w: AAAA rdata %d bytes", ErrRDataOutOfRange, rdlen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
	case TypeCNAME, TypeNS, TypePTR:
		target, n, err := decodeName(msg, off)
		if err != nil {
			return 0, err
		}
		if n != end {
			return 0, fmt.Errorf("%w: name rdata has %d trailing bytes", ErrRDataOutOfRange, end-n)
		}
		rr.Target = target
	case TypeMX:
		if rdlen < 3 {
			return 0, fmt.Errorf("%w: MX rdata %d bytes", ErrRDataOutOfRange, rdlen)
		}
		rr.Pref = binary.BigEndian.Uint16(rdata[0:2])
		target, n, err := decodeName(msg, off+2)
		if err != nil {
			return 0, err
		}
		if n != end {
			return 0, fmt.Errorf("%w: MX rdata has trailing bytes", ErrRDataOutOfRange)
		}
		rr.Target = target
	case TypeTXT:
		for p := 0; p < rdlen; {
			l := int(rdata[p])
			p++
			if p+l > rdlen {
				return 0, fmt.Errorf("%w: TXT string overruns rdata", ErrRDataOutOfRange)
			}
			rr.Text = append(rr.Text, string(rdata[p:p+l]))
			p += l
		}
	case TypeSOA:
		soa := &SOAData{}
		p := off
		if soa.MName, p, err = decodeName(msg, p); err != nil {
			return 0, err
		}
		if soa.RName, p, err = decodeName(msg, p); err != nil {
			return 0, err
		}
		if p+20 != end {
			return 0, fmt.Errorf("%w: SOA fixed fields", ErrRDataOutOfRange)
		}
		soa.Serial = binary.BigEndian.Uint32(msg[p : p+4])
		soa.Refresh = binary.BigEndian.Uint32(msg[p+4 : p+8])
		soa.Retry = binary.BigEndian.Uint32(msg[p+8 : p+12])
		soa.Expire = binary.BigEndian.Uint32(msg[p+12 : p+16])
		soa.Minimum = binary.BigEndian.Uint32(msg[p+16 : p+20])
		rr.SOA = soa
	default:
		rr.Raw = append([]byte(nil), rdata...)
	}
	return end, nil
}
