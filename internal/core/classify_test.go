package core

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/trace"
)

var (
	houseA = netip.MustParseAddr("10.1.0.1")
	houseB = netip.MustParseAddr("10.1.0.2")
	webIP  = netip.MustParseAddr("203.0.0.10")
	webIP2 = netip.MustParseAddr("203.0.0.11")
	cdnIP  = netip.MustParseAddr("198.18.0.5")
	peerIP = netip.MustParseAddr("45.1.2.3")
	resLoc = netip.MustParseAddr("10.0.0.2")
	resGgl = netip.MustParseAddr("8.8.8.8")
)

// mkDNS builds a DNS record completing at ts with the given lookup
// duration and a single answer.
func mkDNS(client netip.Addr, res netip.Addr, ts, dur time.Duration, query string, addr netip.Addr, ttl time.Duration) trace.DNSRecord {
	return trace.DNSRecord{
		QueryTS:  ts - dur,
		TS:       ts,
		Client:   client,
		Resolver: res,
		Query:    query,
		QType:    1,
		Answers:  []trace.Answer{{Addr: addr, TTL: ttl}},
	}
}

// mkConn builds a connection starting at ts.
func mkConn(orig netip.Addr, resp netip.Addr, ts, dur time.Duration, rport uint16) trace.ConnRecord {
	return trace.ConnRecord{
		TS: ts, Duration: dur, Proto: trace.TCP,
		Orig: orig, OrigPort: 40000, Resp: resp, RespPort: rport,
		OrigBytes: 500, RespBytes: 20000,
	}
}

// testOptions lowers the per-resolver sample threshold so tiny hand-built
// datasets still exercise the threshold machinery.
func testOptions() Options {
	o := DefaultOptions()
	o.SCRMinSamples = 10000000 // force the default threshold in unit tests
	return o
}

func classOf(t *testing.T, a *Analysis, connIdx int) Class {
	t.Helper()
	return a.Paired[connIdx].Class
}

func TestClassifyNoDNS(t *testing.T) {
	ds := &trace.Dataset{
		Conns: []trace.ConnRecord{mkConn(houseA, peerIP, time.Second, time.Second, 50000)},
	}
	a := Analyze(ds, testOptions())
	if got := classOf(t, a, 0); got != ClassN {
		t.Fatalf("class = %v, want N", got)
	}
	if a.Paired[0].DNS != -1 {
		t.Fatal("unpaired conn has a DNS index")
	}
}

func TestClassifyBlockedSCvsR(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			// Fast lookup (3 ms <= 5 ms default threshold) -> SC.
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, 300*time.Second),
			// Slow lookup (80 ms) -> R.
			mkDNS(houseA, resLoc, 20*time.Second, 80*time.Millisecond, "b.com", webIP2, 300*time.Second),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseA, webIP2, 20*time.Second+5*time.Millisecond, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	if got := classOf(t, a, 0); got != ClassSC {
		t.Fatalf("fast blocked conn = %v, want SC", got)
	}
	if got := classOf(t, a, 1); got != ClassR {
		t.Fatalf("slow blocked conn = %v, want R", got)
	}
}

func TestClassifyLCvsP(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			// First use, 30 s later: prefetched.
			mkConn(houseA, webIP, 40*time.Second, time.Second, 443),
			// Second use, later still: local cache.
			mkConn(houseA, webIP, 90*time.Second, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	if got := classOf(t, a, 0); got != ClassP {
		t.Fatalf("first late use = %v, want P", got)
	}
	if got := classOf(t, a, 1); got != ClassLC {
		t.Fatalf("second late use = %v, want LC", got)
	}
	if !a.Paired[0].FirstUse || a.Paired[1].FirstUse {
		t.Fatal("FirstUse flags wrong")
	}
}

func TestClassifyBlockedBoundary(t *testing.T) {
	// Exactly at the 100 ms threshold counts as blocked; just beyond does
	// not.
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
			mkDNS(houseA, resLoc, 50*time.Second, 3*time.Millisecond, "b.com", webIP2, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+100*time.Millisecond, time.Second, 443),
			mkConn(houseA, webIP2, 50*time.Second+101*time.Millisecond, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	if got := classOf(t, a, 0); got != ClassSC {
		t.Fatalf("gap=100ms -> %v, want SC (blocked)", got)
	}
	if got := classOf(t, a, 1); got != ClassP {
		t.Fatalf("gap=101ms -> %v, want P", got)
	}
}

func TestPairingPrefersMostRecentFresh(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "old.com", webIP, time.Hour),
			mkDNS(houseA, resLoc, 60*time.Second, 3*time.Millisecond, "new.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 2*time.Minute, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	if got := ds.DNS[a.Paired[0].DNS].Query; got != "new.com" {
		t.Fatalf("paired with %q, want most recent", got)
	}
	if a.Paired[0].Candidates != 2 {
		t.Fatalf("candidates = %d, want 2", a.Paired[0].Candidates)
	}
}

func TestPairingFallsBackToExpired(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, 30*time.Second),
		},
		Conns: []trace.ConnRecord{
			// Ten minutes later: record long expired.
			mkConn(houseA, webIP, 10*time.Minute, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	pc := a.Paired[0]
	if pc.DNS != 0 {
		t.Fatal("expired record not used as fallback")
	}
	if !pc.UsedExpired {
		t.Fatal("UsedExpired not set")
	}
	if pc.Class != ClassP {
		t.Fatalf("class = %v, want P (first use, not blocked)", pc.Class)
	}
}

func TestPairingIsPerClient(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseB, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			// House A never looked up anything.
			mkConn(houseA, webIP, 20*time.Second, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	if got := classOf(t, a, 0); got != ClassN {
		t.Fatalf("cross-house pairing happened: %v", got)
	}
}

func TestPairingIgnoresFutureLookups(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 60*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 30*time.Second, time.Second, 443),
		},
	}
	a := Analyze(ds, testOptions())
	if got := classOf(t, a, 0); got != ClassN {
		t.Fatalf("future lookup paired: %v", got)
	}
}

func TestRandomPairingPolicy(t *testing.T) {
	// Two fresh candidates from different names on one IP (CDN hosting).
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "x.com", cdnIP, time.Hour),
			mkDNS(houseA, resLoc, 20*time.Second, 3*time.Millisecond, "y.com", cdnIP, time.Hour),
		},
	}
	for i := 0; i < 40; i++ {
		ds.Conns = append(ds.Conns, mkConn(houseA, cdnIP, time.Minute+time.Duration(i)*time.Second, time.Second, 443))
	}
	opts := testOptions()
	opts.Pairing = PairRandom
	a := Analyze(ds, opts)
	seen := map[string]bool{}
	for _, pc := range a.Paired {
		seen[ds.DNS[pc.DNS].Query] = true
	}
	if !seen["x.com"] || !seen["y.com"] {
		t.Fatalf("random pairing never chose both candidates: %v", seen)
	}
}

// TestRepeatedAnswerCountsOneCandidate: a lookup whose answer section
// lists an address twice is one candidate for a connection to that
// address, not two, in memory and out of core — Candidates counts
// records — and under PairRandom it takes one share of the draw.
func TestRepeatedAnswerCountsOneCandidate(t *testing.T) {
	web := netip.MustParseAddr("198.51.100.7")
	twice := mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", web, time.Hour)
	twice.Answers = append(twice.Answers, twice.Answers[0])
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			twice,
			mkDNS(houseA, resLoc, 11*time.Second, 3*time.Millisecond, "b.com", web, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, web, 10*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseA, web, 12*time.Second, time.Second, 443),
		},
	}
	want := []int{1, 2}
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := testOptions()
		opts.Pairing = pairing
		a := analyzeCopy(ds, opts)
		o := opts
		o.MemoryBudget = 1
		sh, err := CollectShard(context.Background(), trace.NewDatasetSource(copyDataset(ds)), o)
		if err != nil {
			t.Fatal(err)
		}
		for ci, n := range want {
			if got := a.Paired[ci].Candidates; got != n {
				t.Errorf("pairing=%v conn %d: Candidates = %d, want %d", pairing, ci, got, n)
			}
			if got := sh.clients[0].entries[ci].candidates; got != int32(n) {
				t.Errorf("pairing=%v conn %d spilled: candidates = %d, want %d", pairing, ci, got, n)
			}
		}
	}
}

func TestDeriveThresholdsPerResolver(t *testing.T) {
	ds := &trace.Dataset{}
	// 20 lookups at ~2 ms for the local resolver; threshold should land
	// at 5 ms (2.5x rounded up to a millisecond).
	for i := 0; i < 20; i++ {
		ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc,
			time.Duration(i+1)*time.Second, 2*time.Millisecond, "a.com", webIP, time.Hour))
	}
	// 20 lookups at ~20 ms for Google; threshold 50 ms.
	for i := 0; i < 20; i++ {
		ds.DNS = append(ds.DNS, mkDNS(houseA, resGgl,
			time.Duration(i+100)*time.Second, 20*time.Millisecond, "b.com", webIP2, time.Hour))
	}
	opts := DefaultOptions()
	opts.SCRMinSamples = 10
	a := Analyze(ds, opts)
	if th := a.Thresholds[resLoc.String()]; th != 5*time.Millisecond {
		t.Fatalf("local threshold %v, want 5ms", th)
	}
	if th := a.Thresholds[resGgl.String()]; th != 50*time.Millisecond {
		t.Fatalf("google threshold %v, want 50ms", th)
	}
	// Unknown resolvers fall back to the default.
	if th := a.thresholdFor("192.0.2.99"); th != opts.DefaultSCThreshold {
		t.Fatalf("fallback threshold %v", th)
	}
}

func TestTable2SumsToOne(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseA, webIP, time.Minute, time.Second, 443),
			mkConn(houseA, peerIP, time.Minute, time.Second, 50000),
		},
	}
	a := Analyze(ds, testOptions())
	total := 0.0
	for _, row := range a.Table2() {
		total += row.Fraction
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("fractions sum to %v", total)
	}
	if a.Count(ClassN) != 1 || a.Count(ClassSC) != 1 || a.Count(ClassLC) != 1 {
		t.Fatalf("counts: N=%d SC=%d LC=%d", a.Count(ClassN), a.Count(ClassSC), a.Count(ClassLC))
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{ClassN: "N", ClassLC: "LC", ClassP: "P", ClassSC: "SC", ClassR: "R", Class(9): "Class(9)"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	a := Analyze(&trace.Dataset{}, DefaultOptions())
	if a.Fraction(ClassN) != 0 || a.BlockedFraction() != 0 || a.SharedCacheHitRate() != 0 {
		t.Fatal("empty dataset fractions not zero")
	}
	f1 := a.Figure1()
	if f1.Gaps.N() != 0 {
		t.Fatal("figure1 on empty dataset")
	}
	sig := a.Significance()
	if sig.N != 0 {
		t.Fatal("significance on empty dataset")
	}
}

func TestOptionsDefaultsFilled(t *testing.T) {
	// A zero Options must behave like DefaultOptions rather than
	// classifying everything pathologically.
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
		},
	}
	a := Analyze(ds, Options{})
	if a.Opts.BlockThreshold != DefaultOptions().BlockThreshold {
		t.Fatalf("block threshold not defaulted: %v", a.Opts.BlockThreshold)
	}
	if got := a.Paired[0].Class; got != ClassSC {
		t.Fatalf("class with zero options = %v", got)
	}
}
