package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"time"
)

// TSV serialization in the spirit of Bro logs: a '#fields' header line
// followed by one tab-separated record per line. Timestamps are seconds
// (with fractional part) since the window start.

const (
	dnsFields  = "#fields\tquery_ts\tts\tclient\tresolver\tid\tquery\tqtype\trcode\tanswers\tretries\ttc"
	connFields = "#fields\tts\tduration\tproto\torig\torig_port\tresp\tresp_port\torig_bytes\tresp_bytes"
)

// exactSecsLimit bounds appendSecs's integer path: 2^52 ns, about 52
// days.
const exactSecsLimit = 1 << 52

// appendSecs appends d in seconds with six decimals, the bytes of
// strconv.AppendFloat(buf, d.Seconds(), 'f', 6, 64), which for a fixed
// precision always takes strconv's slow exact path. The integer path
// rounds to the nearest microsecond instead. That is exact away from a
// tie: ns is an integer, so unless ns ≡ 500 (mod 1000) the true value
// ns/1e9 lies at least 1 ns from the nearest rounding boundary. Seconds
// returns float64(ns/1e9) + float64(ns%1e9)/1e9: the whole seconds are
// exact, the fraction's quotient is within 2^-54 s of its true value,
// and below 2^52 ns the sum is under 2^23 s, so its rounding adds at
// most half an ulp, 2^-31 s. The float is therefore within 0.47 ns of
// the true value and rounds to the same six decimals. At a tie the
// float's own rounding error picks the side, and for negative or huge
// values the margin argument does not hold, so those take strconv.
func appendSecs(buf []byte, d time.Duration) []byte {
	ns := int64(d)
	if ns < 0 || ns >= exactSecsLimit || ns%1000 == 500 {
		return strconv.AppendFloat(buf, d.Seconds(), 'f', 6, 64)
	}
	us := (ns + 500) / 1000
	buf = strconv.AppendInt(buf, us/1e6, 10)
	frac := us % 1e6
	return append(buf, '.',
		byte('0'+frac/1e5), byte('0'+frac/1e4%10), byte('0'+frac/1e3%10),
		byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendAddrText appends a's String form: AppendTo's, except that the
// zero Addr reads "invalid IP" (AppendTo writes nothing for it).
func appendAddrText(buf []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(buf, "invalid IP"...)
	}
	return a.AppendTo(buf)
}

// maxSecs bounds parsed timestamps (in seconds). It sits safely below
// the int64-nanosecond limit (~9.22e9 s) so the float→Duration
// conversion can never overflow, with margin for float rounding.
const maxSecs = 9.2e9

func parseSecs(s string) (time.Duration, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// Reject non-finite and overflowing values explicitly: converting
	// such floats to int64 is undefined, and no real trace carries them.
	if math.IsNaN(f) || math.IsInf(f, 0) || f > maxSecs || f < -maxSecs {
		return 0, fmt.Errorf("trace: timestamp %q out of range", s)
	}
	// Round rather than truncate: the fractional-seconds encoding is
	// microsecond-precise, and f*1e9 lands a hair under whole nanosecond
	// values often enough that truncation would corrupt round trips.
	return time.Duration(math.Round(f * float64(time.Second))), nil
}

// WriteDNS writes DNS records as TSV, each line appended into one
// reused buffer.
func WriteDNS(w io.Writer, recs []DNSRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dnsFields + "\n"); err != nil {
		return err
	}
	var line []byte
	for i := range recs {
		line = appendDNSLine(line[:0], &recs[i])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendDNSLine appends d's TSV line.
func appendDNSLine(b []byte, d *DNSRecord) []byte {
	b = appendSecs(b, d.QueryTS)
	b = append(b, '\t')
	b = appendSecs(b, d.TS)
	b = append(b, '\t')
	b = appendAddrText(b, d.Client)
	b = append(b, '\t')
	b = appendAddrText(b, d.Resolver)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.ID), 10)
	b = append(b, '\t')
	b = append(b, d.Query...)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.QType), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.RCode), 10)
	b = append(b, '\t')
	if len(d.Answers) == 0 {
		b = append(b, '-')
	}
	for j, a := range d.Answers {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendAddrText(b, a.Addr)
		b = append(b, '/')
		b = appendSecs(b, a.TTL)
	}
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.Retries), 10)
	if d.TC {
		return append(b, "\tT\n"...)
	}
	return append(b, "\tF\n"...)
}

// parseDNSLineBytes parses one data line in place into *d: fields are
// located by index in the scanner's line buffer, numbers and addresses
// parse without materializing per-field strings, the query name is
// interned through st.names, and the answers land in st's shared arena.
// Every field of *d is written, so the caller's slot need not be
// zeroed first; on an error, *d holds a partial record to discard.
// Accepted inputs, values, and error text are exactly those of the
// historical strings.Split parser.
func parseDNSLineBytes(lineNo int, line []byte, st *parseState, d *DNSRecord) error {
	f, nf := tabFields(line)
	// 9 fields is the pre-fault format (no retries/tc columns);
	// accept it so existing trace files keep loading.
	if nf != 9 && nf != 11 {
		return fmt.Errorf("trace: dns line %d: %d fields, want 9 or 11", lineNo, nf)
	}
	var err error
	if d.QueryTS, err = parseSecsBytes(f[0]); err != nil {
		return fmt.Errorf("trace: dns line %d query_ts: %w", lineNo, err)
	}
	if d.TS, err = parseSecsBytes(f[1]); err != nil {
		return fmt.Errorf("trace: dns line %d ts: %w", lineNo, err)
	}
	if d.Client, err = parseAddrBytes(f[2]); err != nil {
		return fmt.Errorf("trace: dns line %d client: %w", lineNo, err)
	}
	if d.Resolver, err = parseAddrBytes(f[3]); err != nil {
		return fmt.Errorf("trace: dns line %d resolver: %w", lineNo, err)
	}
	id, err := parseUintBytes(f[4], 16)
	if err != nil {
		return fmt.Errorf("trace: dns line %d id: %w", lineNo, err)
	}
	d.ID = uint16(id)
	d.Query = st.names.Canonical(f[5])
	qt, err := parseUintBytes(f[6], 16)
	if err != nil {
		return fmt.Errorf("trace: dns line %d qtype: %w", lineNo, err)
	}
	d.QType = uint16(qt)
	rc, err := parseUintBytes(f[7], 8)
	if err != nil {
		return fmt.Errorf("trace: dns line %d rcode: %w", lineNo, err)
	}
	d.RCode = uint8(rc)
	d.Answers = nil
	if !bytes.Equal(f[8], dashField) {
		st.answers = st.answers[:0]
		rest := f[8]
		for len(rest) > 0 {
			var part []byte
			if i := bytes.IndexByte(rest, ','); i >= 0 {
				part, rest = rest[:i], rest[i+1:]
			} else {
				part, rest = rest, nil
			}
			addr, ttlStr, ok := bytes.Cut(part, slashSep)
			if !ok {
				return fmt.Errorf("trace: dns line %d answer %q missing ttl", lineNo, part)
			}
			var a Answer
			if a.Addr, err = parseAddrBytes(addr); err != nil {
				return fmt.Errorf("trace: dns line %d answer addr: %w", lineNo, err)
			}
			// Zone identifiers may contain commas, which would corrupt
			// the comma-joined answers field on the next write; no DNS
			// answer legitimately carries one.
			if a.Addr.Zone() != "" {
				return fmt.Errorf("trace: dns line %d answer addr %q has a zone", lineNo, addr)
			}
			if a.TTL, err = parseSecsBytes(ttlStr); err != nil {
				return fmt.Errorf("trace: dns line %d answer ttl: %w", lineNo, err)
			}
			st.answers = append(st.answers, a)
		}
		d.Answers = st.arena.take(st.answers)
	}
	d.Retries, d.TC = 0, false
	if nf == 11 {
		rt, err := parseUintBytes(f[9], 8)
		if err != nil {
			return fmt.Errorf("trace: dns line %d retries: %w", lineNo, err)
		}
		d.Retries = uint8(rt)
		switch {
		case len(f[10]) == 1 && f[10][0] == 'T':
			d.TC = true
		case len(f[10]) == 1 && f[10][0] == 'F':
		default:
			return fmt.Errorf("trace: dns line %d tc: %q, want T or F", lineNo, f[10])
		}
	}
	return nil
}

var (
	dashField = []byte("-")
	slashSep  = []byte("/")
)

// ReadDNS parses TSV DNS records. It is the strict slice-based form of
// DNSScanner: the first malformed line aborts the read.
func ReadDNS(r io.Reader) ([]DNSRecord, error) {
	sc := NewDNSScanner(r, ErrorPolicy{})
	var out []DNSRecord
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if sc.parseFailed {
		return nil, sc.Err()
	}
	return out, sc.Err()
}

// WriteConns writes connection records as TSV, each line appended into
// one reused buffer.
func WriteConns(w io.Writer, recs []ConnRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(connFields + "\n"); err != nil {
		return err
	}
	var line []byte
	for i := range recs {
		line = appendConnLine(line[:0], &recs[i])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendConnLine appends c's TSV line.
func appendConnLine(b []byte, c *ConnRecord) []byte {
	b = appendSecs(b, c.TS)
	b = append(b, '\t')
	b = appendSecs(b, c.Duration)
	b = append(b, '\t')
	b = append(b, c.Proto.String()...)
	b = append(b, '\t')
	b = appendAddrText(b, c.Orig)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(c.OrigPort), 10)
	b = append(b, '\t')
	b = appendAddrText(b, c.Resp)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(c.RespPort), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, c.OrigBytes, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, c.RespBytes, 10)
	return append(b, '\n')
}

// parseConnLineBytes parses one data line in place into *c, writing
// every field; see parseDNSLineBytes for the zero-copy contract.
func parseConnLineBytes(lineNo int, line []byte, st *parseState, c *ConnRecord) error {
	f, nf := tabFields(line)
	if nf != 9 {
		return fmt.Errorf("trace: conn line %d: %d fields, want 9", lineNo, nf)
	}
	var err error
	if c.TS, err = parseSecsBytes(f[0]); err != nil {
		return fmt.Errorf("trace: conn line %d ts: %w", lineNo, err)
	}
	if c.Duration, err = parseSecsBytes(f[1]); err != nil {
		return fmt.Errorf("trace: conn line %d duration: %w", lineNo, err)
	}
	switch {
	case bytes.Equal(f[2], protoTCP):
		c.Proto = TCP
	case bytes.Equal(f[2], protoUDP):
		c.Proto = UDP
	default:
		if c.Proto, err = ParseProto(string(f[2])); err != nil {
			return fmt.Errorf("trace: conn line %d: %w", lineNo, err)
		}
	}
	if c.Orig, err = parseAddrBytes(f[3]); err != nil {
		return fmt.Errorf("trace: conn line %d orig: %w", lineNo, err)
	}
	op, err := parseUintBytes(f[4], 16)
	if err != nil {
		return fmt.Errorf("trace: conn line %d orig_port: %w", lineNo, err)
	}
	c.OrigPort = uint16(op)
	if c.Resp, err = parseAddrBytes(f[5]); err != nil {
		return fmt.Errorf("trace: conn line %d resp: %w", lineNo, err)
	}
	rp, err := parseUintBytes(f[6], 16)
	if err != nil {
		return fmt.Errorf("trace: conn line %d resp_port: %w", lineNo, err)
	}
	c.RespPort = uint16(rp)
	if c.OrigBytes, err = parseIntBytes(f[7]); err != nil {
		return fmt.Errorf("trace: conn line %d orig_bytes: %w", lineNo, err)
	}
	if c.RespBytes, err = parseIntBytes(f[8]); err != nil {
		return fmt.Errorf("trace: conn line %d resp_bytes: %w", lineNo, err)
	}
	return nil
}

var (
	protoTCP = []byte("tcp")
	protoUDP = []byte("udp")
)

// ReadConns parses TSV connection records. It is the strict slice-based
// form of ConnScanner: the first malformed line aborts the read.
func ReadConns(r io.Reader) ([]ConnRecord, error) {
	sc := NewConnScanner(r, ErrorPolicy{})
	var out []ConnRecord
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if sc.parseFailed {
		return nil, sc.Err()
	}
	return out, sc.Err()
}
