package core

import (
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/trace"
)

// fuzzBytes hands out the fuzzer's bytes as record fields, zeros once
// they run out, so any input builds records.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) []byte {
	out := make([]byte, n)
	k := copy(out, *b)
	*b = (*b)[k:]
	return out
}

func (b *fuzzBytes) u8() uint8   { return b.next(1)[0] }
func (b *fuzzBytes) u16() uint16 { return binary.LittleEndian.Uint16(b.next(2)) }
func (b *fuzzBytes) dur() time.Duration {
	return time.Duration(binary.LittleEndian.Uint64(b.next(8)))
}

// addr is the zero Addr, an IPv4 or an IPv6 address: every form
// appendAddr encodes (zones are not part of the frame).
func (b *fuzzBytes) addr() netip.Addr {
	switch b.u8() % 3 {
	case 1:
		return netip.AddrFrom4([4]byte(b.next(4)))
	case 2:
		return netip.AddrFrom16([16]byte(b.next(16)))
	}
	return netip.Addr{}
}

func (b *fuzzBytes) dnsRecord() trace.DNSRecord {
	d := trace.DNSRecord{
		QueryTS: b.dur(), TS: b.dur(), Client: b.addr(), Resolver: b.addr(),
		ID: b.u16(), Query: string(b.next(int(b.u8() % 48))), QType: b.u16(), RCode: b.u8(),
	}
	for n := b.u8() % 4; n > 0; n-- {
		d.Answers = append(d.Answers, trace.Answer{Addr: b.addr(), TTL: b.dur()})
	}
	d.Retries = b.u8()
	d.TC = b.u8()%2 == 1
	return d
}

func (b *fuzzBytes) connRecord() trace.ConnRecord {
	return trace.ConnRecord{
		TS: b.dur(), Duration: b.dur(), Proto: trace.Proto(b.u8()), Orig: b.addr(), OrigPort: b.u16(),
		Resp: b.addr(), RespPort: b.u16(), OrigBytes: int64(b.dur()), RespBytes: int64(b.dur()),
	}
}

// encodeDNS and encodeConns write records as one partition file would
// hold them.
func encodeDNS(recs []trace.DNSRecord) (b []byte, answers int) {
	for i := range recs {
		b = appendDNSFrame(b, &recs[i])
		answers += len(recs[i].Answers)
	}
	return b, answers
}

func encodeConns(recs []trace.ConnRecord) (b []byte) {
	for i := range recs {
		b = appendConnFrame(b, &recs[i])
	}
	return b
}

// FuzzSpillFrames checks the spill-frame decoder three ways: arbitrary
// bytes never panic and never decode to a partial record; frames the
// writer encodes decode to exactly the records written; and a
// partition cut at any byte offset fails, naming the partition file.
func FuzzSpillFrames(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(2), uint8(1), []byte("\x01\x02\x03\x04\x05\x06\x07\x08\x01\x0a\x01\x00\x07\x01\x0cwww.example.com"))
	d, _ := encodeDNS([]trace.DNSRecord{{
		QueryTS: time.Second, TS: 2 * time.Second, Client: netip.MustParseAddr("10.1.0.3"),
		Resolver: netip.MustParseAddr("2001:db8::53"), ID: 7, Query: "a.example", QType: 1,
		Answers: []trace.Answer{{Addr: netip.MustParseAddr("192.0.2.1"), TTL: time.Minute}},
	}})
	f.Add(uint8(1), uint8(1), d)
	f.Add(uint8(1), uint8(0), encodeConns([]trace.ConnRecord{{
		TS: time.Second, Duration: time.Second, Orig: netip.MustParseAddr("10.1.0.3"), OrigPort: 40000,
		Resp: netip.MustParseAddr("192.0.2.1"), RespPort: 443, OrigBytes: 10, RespBytes: 20,
	}}))

	f.Fuzz(func(t *testing.T, frames, answers uint8, data []byte) {
		// Arbitrary bytes: a decode either fails with nothing or holds
		// exactly the counted frames, which re-encode to every byte.
		dns, err := decodeDNSFrames(data, int(frames), int(answers))
		if err != nil && dns != nil {
			t.Fatalf("failed DNS decode returned %d records", len(dns))
		}
		if err == nil {
			b, n := encodeDNS(dns)
			if len(dns) != int(frames) || n != int(answers) || len(b) != len(data) {
				t.Fatalf("DNS decode of %d bytes: %d frames, %d answers, %d bytes re-encoded; want %d, %d, %d",
					len(data), len(dns), n, len(b), frames, answers, len(data))
			}
		}
		conns, err := decodeConnFrames(data, int(frames))
		if err != nil && conns != nil {
			t.Fatalf("failed conn decode returned %d records", len(conns))
		}
		if err == nil && (len(conns) != int(frames) || len(encodeConns(conns)) != len(data)) {
			t.Fatalf("conn decode of %d bytes: %d frames; want %d covering every byte", len(data), len(conns), frames)
		}

		// Round trip: records built from the input survive the writer's
		// encoding exactly.
		src := fuzzBytes(data)
		wantDNS := make([]trace.DNSRecord, frames%8)
		wantConns := make([]trace.ConnRecord, answers%8)
		for i := range wantDNS {
			wantDNS[i] = src.dnsRecord()
		}
		for i := range wantConns {
			wantConns[i] = src.connRecord()
		}
		dnsBytes, nAns := encodeDNS(wantDNS)
		connBytes := encodeConns(wantConns)
		gotDNS, err := decodeDNSFrames(dnsBytes, len(wantDNS), nAns)
		if err != nil {
			t.Fatalf("decoding %d written DNS frames: %v", len(wantDNS), err)
		}
		if !reflect.DeepEqual(gotDNS, wantDNS) {
			t.Fatalf("DNS round trip:\ngot  %+v\nwant %+v", gotDNS, wantDNS)
		}
		gotConns, err := decodeConnFrames(connBytes, len(wantConns))
		if err != nil {
			t.Fatalf("decoding %d written conn frames: %v", len(wantConns), err)
		}
		if !reflect.DeepEqual(gotConns, wantConns) {
			t.Fatalf("conn round trip:\ngot  %+v\nwant %+v", gotConns, wantConns)
		}

		// Truncation: every cut fails; the loader names the file.
		for cut := range dnsBytes {
			if _, err := decodeDNSFrames(dnsBytes[:cut], len(wantDNS), nAns); err == nil {
				t.Fatalf("DNS partition cut at %d of %d bytes decoded", cut, len(dnsBytes))
			}
		}
		for cut := range connBytes {
			if _, err := decodeConnFrames(connBytes[:cut], len(wantConns)); err == nil {
				t.Fatalf("conn partition cut at %d of %d bytes decoded", cut, len(connBytes))
			}
		}
		dir := t.TempDir()
		dnsCount := spillCount{frames: len(wantDNS), answers: nAns}
		connCount := spillCount{frames: len(wantConns)}
		whole := map[string][]byte{"dns": dnsBytes, "conn": connBytes}
		for _, stream := range []string{"dns", "conn"} {
			if len(whole[stream]) == 0 {
				continue
			}
			for s, b := range whole {
				if s == stream {
					b = b[:len(data)%len(b)]
				}
				if err := os.WriteFile(spillPath(dir, s, 0), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ld := partitionLoader{dir: dir}
			_, err := ld.load(0, dnsCount, connCount)
			if path := spillPath(dir, stream, 0); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("loading %s partition cut to %d of %d bytes: err %v, want one naming %s",
					stream, len(data)%len(whole[stream]), len(whole[stream]), err, filepath.Base(path))
			}
		}
	})
}
