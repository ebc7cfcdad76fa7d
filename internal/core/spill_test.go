package core

import (
	"bytes"
	"context"
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

// addr is the zero Addr, an IPv4 or an IPv6 address, or an IPv6
// address with a zone: every form appendAddr encodes.
func (b *fuzzBytes) addr() netip.Addr {
	switch b.u8() % 4 {
	case 1:
		return netip.AddrFrom4([4]byte(b.next(4)))
	case 2:
		return netip.AddrFrom16([16]byte(b.next(16)))
	case 3:
		ip := netip.AddrFrom16([16]byte(b.next(16)))
		return ip.WithZone("z" + string(b.next(int(b.u8()%8))))
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

// decodeDNS and decodeConns decode one partition file's frames into a
// fresh record store and convert its records back to trace records.
func decodeDNS(b []byte, frames, answers int) ([]trace.DNSRecord, error) {
	st := &recordStore{symbolTables: newSymbolTables()}
	if err := decodeDNSFrames(b, frames, answers, st); err != nil {
		return nil, err
	}
	return storeDNS(st), nil
}

func decodeConns(b []byte, frames int) ([]trace.ConnRecord, error) {
	st := &recordStore{symbolTables: newSymbolTables()}
	if err := decodeConnFrames(b, frames, st); err != nil {
		return nil, err
	}
	return storeConns(st), nil
}

// storeDNS and storeConns convert a store's records back to the trace
// records they came from.
func storeDNS(st *recordStore) []trace.DNSRecord {
	out := make([]trace.DNSRecord, 0, len(st.dns))
	for i := range st.dns {
		d := &st.dns[i]
		out = append(out, st.traceDNS(d, st.answersOf(d), nil))
	}
	return out
}

func storeConns(st *recordStore) []trace.ConnRecord {
	out := make([]trace.ConnRecord, 0, len(st.conns))
	for i := range st.conns {
		out = append(out, st.traceConn(&st.conns[i]))
	}
	return out
}

// FuzzSpillFrames checks the spill-frame decoder three ways: arbitrary
// bytes never panic, and decode either fails or yields exactly the
// counted frames; frames the writer encodes decode to exactly the
// records written; and a partition cut at any byte offset fails,
// naming the partition file.
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
	// Zoned addresses: a client's zone is part of its identity.
	d, _ = encodeDNS([]trace.DNSRecord{{
		QueryTS: time.Second, TS: 2 * time.Second, Client: netip.MustParseAddr("fe80::1%eth0"),
		Resolver: netip.MustParseAddr("fe80::53%eth1"), ID: 7, Query: "a.example", QType: 28,
		Answers: []trace.Answer{{Addr: netip.MustParseAddr("2001:db8::1"), TTL: time.Minute}},
	}})
	f.Add(uint8(1), uint8(1), d)
	f.Add(uint8(1), uint8(0), encodeConns([]trace.ConnRecord{{
		TS: time.Second, Duration: time.Second, Orig: netip.MustParseAddr("fe80::1%b"), OrigPort: 40000,
		Resp: netip.MustParseAddr("2001:db8::1"), RespPort: 443, OrigBytes: 10, RespBytes: 20,
	}}))

	f.Fuzz(func(t *testing.T, frames, answers uint8, data []byte) {
		// Arbitrary bytes: a decode either fails or holds exactly the
		// counted frames, which re-encode to every byte.
		dns, err := decodeDNS(data, int(frames), int(answers))
		if err == nil {
			b, n := encodeDNS(dns)
			if len(dns) != int(frames) || n != int(answers) || len(b) != len(data) {
				t.Fatalf("DNS decode of %d bytes: %d frames, %d answers, %d bytes re-encoded; want %d, %d, %d",
					len(data), len(dns), n, len(b), frames, answers, len(data))
			}
		}
		conns, err := decodeConns(data, int(frames))
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
		gotDNS, err := decodeDNS(dnsBytes, len(wantDNS), nAns)
		if err != nil {
			t.Fatalf("decoding %d written DNS frames: %v", len(wantDNS), err)
		}
		if !reflect.DeepEqual(gotDNS, wantDNS) {
			t.Fatalf("DNS round trip:\ngot  %+v\nwant %+v", gotDNS, wantDNS)
		}
		gotConns, err := decodeConns(connBytes, len(wantConns))
		if err != nil {
			t.Fatalf("decoding %d written conn frames: %v", len(wantConns), err)
		}
		if !reflect.DeepEqual(gotConns, wantConns) {
			t.Fatalf("conn round trip:\ngot  %+v\nwant %+v", gotConns, wantConns)
		}

		// Truncation: every cut fails; the loader names the file.
		for cut := range dnsBytes {
			if _, err := decodeDNS(dnsBytes[:cut], len(wantDNS), nAns); err == nil {
				t.Fatalf("DNS partition cut at %d of %d bytes decoded", cut, len(dnsBytes))
			}
		}
		for cut := range connBytes {
			if _, err := decodeConns(connBytes[:cut], len(wantConns)); err == nil {
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
			ld := partitionLoader{dir: dir, resolvers: resolversOf(wantDNS)}
			_, err := ld.load(0, dnsCount, connCount)
			if path := spillPath(dir, stream, 0); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("loading %s partition cut to %d of %d bytes: err %v, want one naming %s",
					stream, len(data)%len(whole[stream]), len(whole[stream]), err, filepath.Base(path))
			}
		}
	})
}

// resolversOf numbers the resolvers of recs as the whole-trace
// accumulators would.
func resolversOf(recs []trace.DNSRecord) []resolverStat {
	t := newSymbolTables()
	for i := range recs {
		t.resolver(recs[i].Resolver)
	}
	return t.resolvers
}

// zonedTrace is one lookup by fe80::1%a and one connection each from
// fe80::1%a and fe80::1%b to its answer. The zone is part of a client's
// identity, so the %b connection has no lookup of its own (N) and the
// %a one blocked on its 50 ms lookup (R).
func zonedTrace() *trace.Dataset {
	server := netip.MustParseAddr("2001:db8::1")
	return &trace.Dataset{
		DNS: []trace.DNSRecord{{
			QueryTS: time.Second, TS: time.Second + 50*time.Millisecond,
			Client: netip.MustParseAddr("fe80::1%a"), Resolver: netip.MustParseAddr("2001:db8::53"),
			ID: 1, Query: "a.example", QType: 28,
			Answers: []trace.Answer{{Addr: server, TTL: 5 * time.Minute}},
		}},
		Conns: []trace.ConnRecord{
			{TS: time.Second + 60*time.Millisecond, Duration: time.Second, Proto: trace.TCP,
				Orig: netip.MustParseAddr("fe80::1%a"), OrigPort: 40000, Resp: server, RespPort: 443},
			{TS: time.Second + 70*time.Millisecond, Duration: time.Second, Proto: trace.TCP,
				Orig: netip.MustParseAddr("fe80::1%b"), OrigPort: 40001, Resp: server, RespPort: 443},
		},
	}
}

// TestSpillKeepsAddressZones: a forced-spill run must classify a trace
// whose clients differ only by zone exactly as the in-memory pipeline
// does, so the spill frames must carry zones.
func TestSpillKeepsAddressZones(t *testing.T) {
	opts := DefaultOptions()
	ref := Analyze(zonedTrace(), opts)
	if ref.Count(ClassN) != 1 || ref.Count(ClassR) != 1 {
		t.Fatalf("in memory: N=%d R=%d, want 1 and 1", ref.Count(ClassN), ref.Count(ClassR))
	}
	opts.MemoryBudget = 1
	a, err := AnalyzeSource(context.Background(), trace.NewDatasetSource(zonedTrace()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Summary() {
		t.Fatal("the run did not spill")
	}
	for c := ClassN; c < numClasses; c++ {
		if a.Count(c) != ref.Count(c) {
			t.Errorf("spilled: Count(%v) = %d, in memory %d", c, a.Count(c), ref.Count(c))
		}
	}
	if a.Digest() != ref.Digest() {
		t.Errorf("spilled digest %#016x, in memory %#016x", a.Digest(), ref.Digest())
	}
}

// TestShardFileKeepsAddressZones: a shard whose clients differ only by
// zone must survive a shard-file round trip, so the shard encoding must
// carry zones.
func TestShardFileKeepsAddressZones(t *testing.T) {
	sh, err := CollectShard(context.Background(), trace.NewDatasetSource(zonedTrace()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zoned.shard")
	if err := WriteShardFile(path, sh); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.encode(), sh.encode()) {
		t.Error("round trip changed the shard's encoding")
	}
	if got.Finalize().Digest() != sh.Finalize().Digest() {
		t.Error("round trip changed the finalized digest")
	}
}
