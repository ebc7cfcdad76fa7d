package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/stats"
	"dnscontext/internal/zonedb"
)

// TestPoolExchangeAllocBudget gates one pooled UDP exchange against an
// in-process ZoneHandler server: the client's query encode, ID
// registration and timer, the server's read, fast-path answer and write,
// and the client's read and demux. testing.AllocsPerRun counts mallocs
// process-wide, so the server's goroutines count too. What is left is the
// client's Decode result — the Message, its question slice, the question
// name and, for an answer, the answer slice — which the Query API hands
// to its caller.
func TestPoolExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	_, zones, addr := startZoneServer(t)
	pool, err := NewClientPool(addr, ClientPoolConfig{Sockets: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		budget float64
	}{
		{zones.ByRank(0).Host, 4},
		{"missing.example", 3}, // NXDOMAIN: no answer slice
	} {
		var rcode dnswire.RCode
		allocs := testing.AllocsPerRun(1000, func() {
			resp, err := pool.Query(context.Background(), tc.name, dnswire.TypeA)
			if err != nil {
				t.Fatal(err)
			}
			rcode = resp.Header.RCode
		})
		t.Logf("%s (%v): %.0f allocations per exchange", tc.name, rcode, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per exchange, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// fastPathZone is the small namespace FuzzZoneFastPath answers from.
func fastPathZone(tb testing.TB) *zonedb.DB {
	tb.Helper()
	zones, err := zonedb.New(zonedb.Config{
		NumNames: 20, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 5,
	}, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	return zones
}

// mixedAddrs holds one address of each kind AddAnswerA tells apart.
var mixedAddrs = []netip.Addr{
	netip.MustParseAddr("192.0.2.1"),
	netip.MustParseAddr("2001:db8::1"),
	netip.MustParseAddr("::ffff:198.51.100.2"),
}

// FuzzZoneFastPath checks the server's fast path against the general
// codec. ParseQuery accepts only datagrams Decode accepts, as a query
// with the same ID, opcode, RD bit, canonical name, type and class. For
// a small zone, the fast answer is byte for byte what ZoneHandler's
// response encodes to, or declines exactly where that Encode fails; so
// are the REFUSED response and an answer with IPv4, IPv6 and
// IPv4-mapped addresses. And AppendQuery writes what
// NewQuery(...).Encode() writes, errors included.
func FuzzZoneFastPath(f *testing.F) {
	zones := fastPathZone(f)
	seed := func(id uint16, name string, t dnswire.Type, edit func(m *dnswire.Message)) {
		m := dnswire.NewQuery(id, name, t)
		if edit != nil {
			edit(m)
		}
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, name, uint16(t))
	}
	host := zones.ByRank(0).Host
	seed(1, host, dnswire.TypeA, nil)
	seed(2, "API."+host, dnswire.TypeANY, nil)
	seed(3, host+".", dnswire.TypeAAAA, nil)
	seed(4, "missing.example", dnswire.TypeA, nil)
	seed(5, ".", dnswire.TypeA, nil)
	seed(6, host, dnswire.TypeA, func(m *dnswire.Message) { m.Header.Opcode = dnswire.OpcodeNotify })
	seed(7, host, dnswire.TypeMX, func(m *dnswire.Message) { m.Header.RecursionDesired = false })
	seed(8, zones.ByRank(3).Host, dnswire.TypeA, func(m *dnswire.Message) {
		m.Header.Authoritative, m.Header.RCode = true, dnswire.RCodeServFail
	})
	// Declined: a compressed question, a trailing byte, a second question.
	f.Add([]byte{0, 9, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 2, 0, 1, 0, 1}, "a..b", uint16(1))
	trailing, err := dnswire.AppendQuery(nil, 10, host, dnswire.TypeA)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(trailing, 0), host, uint16(28))
	f.Add([]byte{0, 11, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 1, 0, 1, 1, 'b', 0, 0, 1, 0, 1}, "", uint16(255))

	f.Fuzz(func(t *testing.T, msg []byte, name string, qtype uint16) {
		id := uint16(len(msg))
		want, werr := dnswire.NewQuery(id, name, dnswire.Type(qtype)).Encode()
		got, gerr := dnswire.AppendQuery(nil, id, name, dnswire.Type(qtype))
		if !bytes.Equal(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("AppendQuery(%q) = %x, %v; Encode gives %x, %v", name, got, gerr, want, werr)
		}

		q, ok := dnswire.ParseQuery(msg)
		if !ok {
			return
		}
		m, err := dnswire.Decode(msg)
		if err != nil {
			t.Fatalf("ParseQuery accepted %x, Decode rejects it: %v", msg, err)
		}
		if m.Header.Response || len(m.Questions) != 1 || m.Header.ID != q.ID ||
			m.Header.Opcode != q.Opcode || m.Header.RecursionDesired != q.RecursionDesired {
			t.Fatalf("header %+v with %d questions; view %+v", m.Header, len(m.Questions), q)
		}
		question := m.Questions[0]
		if cn := dnswire.CanonicalName(question.Name); string(q.AppendName(nil)) != cn ||
			question.Type != q.Type || question.Class != q.Class {
			t.Fatalf("question %+v (canonical %q); view %q %v %v", question, cn, q.AppendName(nil), q.Type, q.Class)
		}

		w := &workerScratch{}
		rcode, ok := w.answerZone(zones, &q)
		resp := ZoneHandler(zones).Handle(m)
		general, err := resp.Encode()
		if ok != (err == nil) || ok && (!bytes.Equal(w.out, general) || rcode != resp.Header.RCode) {
			t.Fatalf("fast answer %x (%v, ok %v); general %x (%v, %v)", w.out, rcode, ok, general, resp.Header.RCode, err)
		}

		refused, _ := q.AppendResponse(nil, dnswire.RCodeRefused, false, nil, 0)
		if want, err := dnswire.NewResponse(m, dnswire.RCodeRefused).Encode(); err != nil || !bytes.Equal(refused, want) {
			t.Fatalf("REFUSED %x; general %x, %v", refused, want, err)
		}

		mixed := dnswire.NewResponse(m, dnswire.RCodeNoError)
		for _, a := range mixedAddrs {
			mixed.AddAnswerA(question.Name, a, uint32(qtype))
		}
		fast, ok := q.AppendResponse([]byte{0xAA}, dnswire.RCodeNoError, false, mixedAddrs, uint32(qtype))
		if want, err := mixed.Encode(); ok != (err == nil) || ok && !bytes.Equal(fast[1:], want) {
			t.Fatalf("mixed answer %x (ok %v); general %x, %v", fast, ok, want, err)
		}
	})
}

// TestReusableTimerNoStaleTick: a timer reused across attempts must not
// carry a tick from one attempt into the next — neither one that fired
// unread (stop drains it) nor one the attempt read (stop keeps the timer).
func TestReusableTimerNoStaleTick(t *testing.T) {
	var r reusableTimer
	r.start(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // fires; nobody reads the tick
	r.stop()
	select {
	case <-r.start(time.Hour):
		t.Fatal("a tick from the previous arming ended the next one")
	case <-time.After(20 * time.Millisecond):
	}
	r.stop()

	<-r.start(time.Millisecond)
	r.fired = true
	r.stop()
	if r.t == nil {
		t.Fatal("a timer whose tick was read was dropped")
	}
	select {
	case <-r.start(time.Hour):
		t.Fatal("a read tick came back on reuse")
	case <-time.After(20 * time.Millisecond):
	}
	r.stop()
}
