package trace_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/netsim"
	"dnscontext/internal/trace"
)

// The fmt-based TSV writers the appending writers replaced, kept as the
// byte-identity reference.

func refSecs(d time.Duration) string { return strconv.FormatFloat(d.Seconds(), 'f', 6, 64) }

func refWriteDNS(w io.Writer, recs []trace.DNSRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#fields\tquery_ts\tts\tclient\tresolver\tid\tquery\tqtype\trcode\tanswers\tretries\ttc")
	for i := range recs {
		d := &recs[i]
		answers := make([]string, len(d.Answers))
		for j, a := range d.Answers {
			answers[j] = fmt.Sprintf("%s/%s", a.Addr, refSecs(a.TTL))
		}
		ans := strings.Join(answers, ",")
		if ans == "" {
			ans = "-"
		}
		tc := "F"
		if d.TC {
			tc = "T"
		}
		fmt.Fprintf(bw, "%s\t%s\t%s\t%s\t%d\t%s\t%d\t%d\t%s\t%d\t%s\n",
			refSecs(d.QueryTS), refSecs(d.TS), d.Client, d.Resolver, d.ID,
			d.Query, d.QType, d.RCode, ans, d.Retries, tc)
	}
	return bw.Flush()
}

func refWriteConns(w io.Writer, recs []trace.ConnRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#fields\tts\tduration\tproto\torig\torig_port\tresp\tresp_port\torig_bytes\tresp_bytes")
	for i := range recs {
		c := &recs[i]
		fmt.Fprintf(bw, "%s\t%s\t%s\t%s\t%d\t%s\t%d\t%d\t%d\n",
			refSecs(c.TS), refSecs(c.Duration), c.Proto, c.Orig, c.OrigPort,
			c.Resp, c.RespPort, c.OrigBytes, c.RespBytes)
	}
	return bw.Flush()
}

// edgeRecords are the records no generated trace holds: IPv6 and zoned
// addresses, the zero address, answerless and many-answer lookups,
// negative times, times past the integer formatting path's bound and at
// half-microsecond ties, and a protocol value outside tcp and udp.
func edgeRecords() ([]trace.DNSRecord, []trace.ConnRecord) {
	v6, zoned := netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("fe80::1%eth0")
	long := 60 * 24 * time.Hour
	dns := []trace.DNSRecord{
		{QueryTS: time.Second, TS: time.Second + 1500, Client: zoned, Resolver: netip.MustParseAddr("fe80::53%wlan0"),
			ID: 1, Query: "a.example", QType: 28, Answers: []trace.Answer{{Addr: v6, TTL: 300 * time.Second}}},
		{QueryTS: -time.Millisecond, TS: 0, Client: v6, Resolver: v6, Query: "b.example", QType: 28, RCode: 3},
		{QueryTS: long, TS: long + 2500, Client: netip.MustParseAddr("::ffff:10.1.0.1"), Resolver: v6,
			ID: 65535, Query: "c.example", QType: 1, RCode: 2, Retries: 255, TC: true,
			Answers: []trace.Answer{
				{Addr: netip.MustParseAddr("192.0.2.1"), TTL: 0},
				{Addr: netip.MustParseAddr("192.0.2.1"), TTL: -time.Second},
				{Addr: v6, TTL: long},
			}},
		{Query: "zero.example"},
	}
	conns := []trace.ConnRecord{
		{TS: time.Second, Duration: 500, Proto: trace.UDP, Orig: zoned, OrigPort: 5353, Resp: v6, RespPort: 443},
		{TS: long + 999_999_500, Duration: -time.Second, Proto: trace.Proto(7), Orig: v6, Resp: netip.MustParseAddr("192.0.2.1"),
			OrigBytes: -1, RespBytes: 1 << 62},
		{},
	}
	return dns, conns
}

// TestTSVWritersByteIdentical: the appending writers must write every
// byte the fmt-based writers wrote, over a generated trace, a faulted
// one, and the edge records.
func TestTSVWritersByteIdentical(t *testing.T) {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	plain, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults.Loss = 0.02
	cfg.Faults.ExtraJitter = 2 * time.Millisecond
	cfg.Faults.TruncateOver = 6
	cfg.Faults.LocalOutages = []netsim.Window{{Start: 10 * time.Minute, End: 20 * time.Minute}}
	faulted, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edgeDNS, edgeConns := edgeRecords()
	for _, tc := range []struct {
		name string
		ds   *trace.Dataset
	}{
		{"generated", plain},
		{"faulted", faulted},
		{"edge", &trace.Dataset{DNS: edgeDNS, Conns: edgeConns}},
	} {
		var got, want bytes.Buffer
		if err := trace.WriteDNS(&got, tc.ds.DNS); err != nil {
			t.Fatal(err)
		}
		refWriteDNS(&want, tc.ds.DNS)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteDNS wrote %d bytes differing from the reference's %d", tc.name, got.Len(), want.Len())
		}
		got.Reset()
		want.Reset()
		if err := trace.WriteConns(&got, tc.ds.Conns); err != nil {
			t.Fatal(err)
		}
		refWriteConns(&want, tc.ds.Conns)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteConns wrote %d bytes differing from the reference's %d", tc.name, got.Len(), want.Len())
		}
	}
}
