package dnswire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// The name codec's earlier implementations, kept as the references the
// lean ones must match: appendName split the name into labels and keyed
// the compression table by a lower-cased join of each suffix, and
// decodeName built the name in a strings.Builder and lower-cased it.

func refSplitLabels(name string) ([]string, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil, nil
	}
	labels := strings.Split(name, ".")
	for _, l := range labels {
		if l == "" {
			return nil, ErrEmptyLabel
		}
		if len(l) > MaxLabelLen {
			return nil, fmt.Errorf("%w: %q", ErrLabelTooLong, l)
		}
	}
	return labels, nil
}

func refAppendName(msg []byte, name string, ptrs map[string]int) ([]byte, error) {
	labels, err := refSplitLabels(name)
	if err != nil {
		return nil, err
	}
	wire := 1
	for _, l := range labels {
		wire += len(l) + 1
	}
	if wire > MaxNameLen {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	for i := range labels {
		suffix := strings.ToLower(strings.Join(labels[i:], "."))
		if off, ok := ptrs[suffix]; ok {
			return append(msg, 0xC0|byte(off>>8), byte(off)), nil
		}
		if off := len(msg); off < 0x4000 && ptrs != nil {
			ptrs[suffix] = off
		}
		msg = append(msg, byte(len(labels[i])))
		msg = append(msg, labels[i]...)
	}
	return append(msg, 0), nil
}

func refDecodeName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	next := -1
	chases := 0
	total := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if next == -1 {
				next = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return strings.ToLower(name), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncated
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			chases++
			if chases > maxPointerChases {
				return "", 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, ErrReservedLabel
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncated
			}
			total += l + 1
			if total > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+l])
			off += 1 + l
		}
	}
}

// refOwnerNames walks a message Decode accepted and returns the owner
// name of every question and record, in order, each read by
// refDecodeName at its own offset.
func refOwnerNames(t *testing.T, msg []byte) []string {
	t.Helper()
	counts := [4]int{}
	for i := range counts {
		counts[i] = int(msg[4+2*i])<<8 | int(msg[5+2*i])
	}
	var names []string
	off := 12
	for i := 0; i < counts[0]+counts[1]+counts[2]+counts[3]; i++ {
		name, next, err := refDecodeName(msg, off)
		if err != nil {
			t.Fatalf("reference walk at %d: %v", off, err)
		}
		names = append(names, name)
		if off = next + 4; i >= counts[0] {
			off += 6 + (int(msg[off+4])<<8 | int(msg[off+5]))
		}
	}
	return names
}

// pinnedMessage exercises every record type, every header flag the
// encoder writes, mixed case, a trailing dot, non-ASCII and invalid
// UTF-8 names (two of which lower-case to the same compression key), an
// IPv4-mapped A address and the root name.
func pinnedMessage() *Message {
	q := NewQuery(0xBEEF, "Host.Example.ORG", TypeANY)
	resp := NewResponse(q, RCodeNXDomain)
	resp.Header.Authoritative = true
	resp.Header.Truncated = true
	resp.Header.RecursionAvailable = true
	resp.Header.Opcode = OpcodeNotify
	resp.AddAnswerA("host.example.org", netip.MustParseAddr("192.0.2.10"), 300)
	resp.AddAnswerA("HOST.example.org.", netip.MustParseAddr("2001:db8::1"), 600)
	resp.AddAnswerCNAME("alias.Example.org", "host.example.ORG", 120)
	resp.Answers = append(resp.Answers,
		RR{Name: "example.org", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns1.example.org"},
		RR{Name: "example.org", Type: TypeMX, Class: ClassIN, TTL: 3600, Pref: 10, Target: "mail.example.org"},
		RR{Name: "example.org", Type: TypeTXT, Class: ClassCH, TTL: 60, Text: []string{"v=spf1 -all", ""}},
		RR{Name: "10.2.0.192.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 900, Target: "Host.example.org"},
		RR{Name: "caf\xc3\xa9.example.org", Type: TypeA, Class: ClassIN, TTL: 1, Addr: netip.MustParseAddr("::ffff:198.51.100.7")},
		RR{Name: "\xff.Example.org", Type: TypeA, Class: ClassIN, TTL: 2, Addr: netip.MustParseAddr("198.51.100.8")},
		RR{Name: "\xfe.example.org", Type: TypeA, Class: ClassIN, TTL: 3, Addr: netip.MustParseAddr("198.51.100.9")},
	)
	resp.Authority = append(resp.Authority, RR{
		Name: "example.org", Type: TypeSOA, Class: ClassIN, TTL: 1800,
		SOA: &SOAData{MName: "ns1.example.org", RName: "admin.example.org",
			Serial: 2020102701, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300},
	})
	resp.Additional = append(resp.Additional, RR{
		Name: ".", Type: TypeOPT, Class: Class(4096), Raw: []byte{1, 2, 3},
	})
	return resp
}

// pinnedWire is pinnedMessage as the split-and-join encoder wrote it.
const pinnedWire = "beefa7830001000a0001000104486f7374074578616d706c65034f52470000ff0001c00c000100010000012c0004c000020ac00c001c000100000258001020010db800000000000000000000000105616c696173c01100050001000000780002c00cc0110002000100000e100006036e7331c011c011000f000100000e100009000a046d61696cc011c011001000030000003c000d0b763d73706631202d616c6c00023130013201300331393207696e2d61646472046172706100000c0001000003840002c00c05636166c3a9c01100010001000000010004c633640701ffc01100010001000000020004c6336408c0dd00010001000000030004c6336409c0110006000100000708001ec06e0561646d696ec0117868522d00001c2000000384001275000000012c0000291000000000000003010203"

// TestEncodePinnedBytes pins the encoder's output byte for byte,
// including the compression pointer that invalid UTF-8 labels share
// because strings.ToLower maps both to U+FFFD.
func TestEncodePinnedBytes(t *testing.T) {
	b, err := pinnedMessage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != pinnedWire {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, pinnedWire)
	}
	prefix := []byte("prefix")
	ab, err := pinnedMessage().AppendEncode(prefix)
	if err != nil || !bytes.Equal(ab, append(prefix, b...)) {
		t.Fatalf("AppendEncode after a prefix: %x, %v", ab, err)
	}
}

// fuzzSeedMessages is FuzzDecode's seed corpus.
func fuzzSeedMessages(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(m *Message) {
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	add(NewQuery(1, "www.Example.com", TypeA))
	add(NewQuery(2, ".", TypeNS))
	add(pinnedMessage())
	resp := NewResponse(NewQuery(3, "api.site00000.com", TypeA), RCodeNoError)
	for i := 0; i < 3; i++ {
		resp.AddAnswerA("api.site00000.com", netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 300)
	}
	add(resp)
	selfPtr := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1}
	backLoop := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0xC0, 12, 0, 1, 0, 1}
	return append(seeds, selfPtr, backLoop, []byte{0xC0, 0, 0, 0})
}

// FuzzDecode checks the general decoder on arbitrary bytes: it never
// panics and terminates on pointer loops; in a message it accepts, every
// owner name is the one the reference name decoder reads at its offset;
// a message Encode can write back decodes again to an equal Message, and
// AppendEncode appends the same bytes; and the name codec matches its
// reference implementations — decodeName at every offset, appendName
// over names cut from the input, with and without a compression table.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeedMessages(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		if m, err := Decode(msg); err == nil {
			var names []string
			for _, q := range m.Questions {
				names = append(names, q.Name)
			}
			for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
				for _, rr := range sec {
					names = append(names, rr.Name)
				}
			}
			if want := refOwnerNames(t, msg); !reflect.DeepEqual(names, want) {
				t.Fatalf("owner names %q, reference %q", names, want)
			}
			if b, err := m.Encode(); err == nil {
				again, err := Decode(b)
				if err != nil {
					t.Fatalf("re-decode of %x: %v", b, err)
				}
				if !reflect.DeepEqual(again, m) {
					t.Fatalf("round trip changed the message:\n%+v\n%+v", m, again)
				}
				ab, err := m.AppendEncode([]byte{0xAA})
				if err != nil || !bytes.Equal(ab[1:], b) || ab[0] != 0xAA {
					t.Fatalf("AppendEncode = %x, %v; Encode = %x", ab, err, b)
				}
			}
		}
		for off := 0; off <= len(msg); off++ {
			name, next, err := decodeName(msg, off)
			rname, rnext, rerr := refDecodeName(msg, off)
			if name != rname || next != rnext || err != rerr {
				t.Fatalf("decodeName at %d = %q, %d, %v; reference %q, %d, %v",
					off, name, next, err, rname, rnext, rerr)
			}
		}
		ptrs, rptrs := map[string]int{}, map[string]int{}
		var b, rb []byte
		for _, name := range strings.Split(string(msg), "\x00") {
			nb, err := appendName(b, name, ptrs)
			rnb, rerr := refAppendName(rb, name, rptrs)
			if !bytes.Equal(nb, rnb) || fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("appendName(%q) = %x, %v; reference %x, %v", name, nb, err, rnb, rerr)
			}
			if err == nil {
				b, rb = nb, rnb
			}
			plain, err := appendName(nil, name, nil)
			rplain, rerr := refAppendName(nil, name, nil)
			if !bytes.Equal(plain, rplain) || fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("appendName(%q) without a table = %x, %v; reference %x, %v", name, plain, err, rplain, rerr)
			}
		}
		if !reflect.DeepEqual(ptrs, rptrs) {
			t.Fatalf("compression tables differ: %v vs %v", ptrs, rptrs)
		}
	})
}

// TestDecodePointerLoopsTerminate: every way of looping through
// compression pointers ends in an error, not a hang.
func TestDecodePointerLoopsTerminate(t *testing.T) {
	header := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, name := range [][]byte{
		{0xC0, 12},         // a pointer to itself
		{1, 'a', 0xC0, 12}, // a label, then back to it
		{0xC0, 14, 0xC0, 12},
	} {
		msg := append(append(append([]byte(nil), header...), name...), 0, 1, 0, 1)
		if _, err := Decode(msg); !errors.Is(err, ErrPointerLoop) && !errors.Is(err, ErrBadPointer) {
			t.Errorf("name %x: err = %v, want a pointer error", name, err)
		}
	}
}

// FuzzReadTCPFrame reads frames until the stream ends: every frame is
// the bytes its prefix announces, re-framing the frames gives back the
// bytes consumed, and the stream ends in io.EOF exactly at a frame
// boundary and in io.ErrUnexpectedEOF inside one.
func FuzzReadTCPFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 3, 'a', 'b', 'c', 0, 1})
	f.Add([]byte{0, 2, 'x', 'y', 0, 0, 0, 5, 'z'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var reframed []byte
		for {
			frame, err := ReadTCPFrame(r)
			if err != nil {
				consumed := len(data) - r.Len()
				switch {
				case err == io.EOF:
					if consumed != len(reframed) || consumed != len(data) {
						t.Fatalf("io.EOF after %d of %d bytes, %d framed", consumed, len(data), len(reframed))
					}
				case errors.Is(err, io.ErrUnexpectedEOF):
					if len(data)-len(reframed) == 0 {
						t.Fatal("io.ErrUnexpectedEOF at a frame boundary")
					}
				default:
					t.Fatalf("unexpected error %v", err)
				}
				break
			}
			if reframed, err = AppendTCPFrame(reframed, frame); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reframed, data[:len(reframed)]) {
				t.Fatalf("frames %x re-frame differently from the input %x", reframed, data)
			}
		}
	})
}
