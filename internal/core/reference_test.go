package core

// A reference classifier for the paper's method, written straight from
// its definitions (§3 pairing, §4 ambiguity, §5 blocking and the §5.3
// per-resolver SC/R split) with none of the pipeline's machinery: no
// shards, symbol tables, pairing indexes or record store. For every
// connection it scans every DNS record of the same client. The tests
// compare its verdict with Analysis.Paired connection by connection, so
// a change that keeps the pipeline's own paths in agreement with each
// other but not with the paper still fails here.

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"dnscontext/internal/trace"
)

// refPairing is the reference verdict for one connection.
type refPairing struct {
	dns         int // dataset index of the paired record, or -1
	gap         time.Duration
	candidates  int
	firstUse    bool
	usedExpired bool
	class       Class
}

// refThresholds derives each resolver's SC/R threshold from its
// definition: a resolver with at least the gate's lookups gets 2.5
// times its fastest lookup, rounded up to a whole millisecond and never
// below the default; other resolvers get no entry (the default
// applies). The gate is the paper's 1,000 of 9.2M lookups scaled to the
// trace, at least 50 and at most SCRMinSamples.
func refThresholds(ds *trace.Dataset, opts Options) map[netip.Addr]time.Duration {
	lookups := make(map[netip.Addr]int)
	fastest := make(map[netip.Addr]time.Duration)
	for i := range ds.DNS {
		d := &ds.DNS[i]
		if lookups[d.Resolver] == 0 || d.Duration() < fastest[d.Resolver] {
			fastest[d.Resolver] = d.Duration()
		}
		lookups[d.Resolver]++
	}
	gate := min(max(len(ds.DNS)/9200, 50), opts.SCRMinSamples)
	th := make(map[netip.Addr]time.Duration)
	for r, n := range lookups {
		if n < gate {
			continue
		}
		t := fastest[r] * 5 / 2
		if rem := t % time.Millisecond; rem > 0 {
			t += time.Millisecond - rem
		}
		th[r] = max(t, opts.DefaultSCThreshold)
	}
	return th
}

// referenceClassify pairs and classifies every connection of the
// time-sorted dataset ds. A candidate for a connection is a lookup by
// the same client that completed at or before the connection started
// and whose answers contain the destination; it is unexpired while the
// connection starts before its TTL runs out. The connection pairs with
// the most recent unexpired candidate, or else the most recent
// candidate (records completing at the same instant count in dataset
// order). choose, when non-nil, replaces the most-recent rule among
// several unexpired candidates (PairRandom's draw).
func referenceClassify(ds *trace.Dataset, opts Options, th map[netip.Addr]time.Duration,
	choose func(conn int, fresh []int) int) []refPairing {
	byClient := make(map[netip.Addr][]int)
	for i := range ds.DNS {
		byClient[ds.DNS[i].Client] = append(byClient[ds.DNS[i].Client], i)
	}
	used := make([]bool, len(ds.DNS))
	out := make([]refPairing, len(ds.Conns))
	for ci := range ds.Conns {
		c := &ds.Conns[ci]
		var cands, fresh []int
		for _, di := range byClient[c.Orig] {
			d := &ds.DNS[di]
			if d.TS > c.TS || !d.HasAddr(c.Resp) {
				continue
			}
			cands = append(cands, di)
			if c.TS < d.ExpiresAt() {
				fresh = append(fresh, di)
			}
		}
		r := &out[ci]
		switch {
		case len(cands) == 0:
			r.dns, r.class = -1, ClassN
			continue
		case len(fresh) == 0:
			r.dns = cands[len(cands)-1]
		case choose != nil && len(fresh) > 1:
			r.dns = choose(ci, fresh)
		default:
			r.dns = fresh[len(fresh)-1]
		}
		d := &ds.DNS[r.dns]
		r.candidates = len(fresh)
		r.gap = c.TS - d.TS
		// Connections run in time order, so the first to pair with a
		// record is its earliest use.
		r.firstUse = !used[r.dns]
		used[r.dns] = true
		r.usedExpired = c.TS >= d.ExpiresAt()
		limit, ok := th[d.Resolver]
		if !ok {
			limit = opts.DefaultSCThreshold
		}
		switch {
		case r.gap > opts.BlockThreshold && r.firstUse:
			r.class = ClassP // on hand, never used before: a prefetch
		case r.gap > opts.BlockThreshold:
			r.class = ClassLC // on hand and used before: a local cache
		case d.Duration() <= limit:
			r.class = ClassSC // blocked on a shared-cache hit
		default:
			r.class = ClassR // blocked on a full resolution
		}
	}
	return out
}

// checkReference compares every connection of a, the analysis of ds,
// with the reference verdict, then the thresholds and the used-record
// marks, and returns the reference class counts. Under PairRandom it
// checks that each drawn record is among the connection's unexpired
// candidates and takes the draw from a; everything downstream of it is
// checked.
func checkReference(t *testing.T, label string, ds *trace.Dataset, a *Analysis) [numClasses]int {
	t.Helper()
	if !sort.SliceIsSorted(ds.DNS, func(i, j int) bool { return ds.DNS[i].TS < ds.DNS[j].TS }) ||
		!sort.SliceIsSorted(ds.Conns, func(i, j int) bool { return ds.Conns[i].TS < ds.Conns[j].TS }) {
		t.Fatalf("%s: analysis left its dataset out of time order", label)
	}
	th := refThresholds(ds, a.Opts)
	var choose func(int, []int) int
	if a.Opts.Pairing == PairRandom {
		choose = func(ci int, fresh []int) int {
			if got := a.Paired[ci].DNS; slices.Contains(fresh, got) {
				return got
			}
			t.Errorf("%s: conn %d paired record %d outside its unexpired candidates %v",
				label, ci, a.Paired[ci].DNS, fresh)
			return fresh[len(fresh)-1]
		}
	}
	want := referenceClassify(ds, a.Opts, th, choose)

	var counts [numClasses]int
	bad := 0
	for ci := range want {
		w, g := &want[ci], &a.Paired[ci]
		counts[w.class]++
		if g.Conn == ci && g.DNS == w.dns && g.Gap == w.gap && g.Candidates == w.candidates &&
			g.FirstUse == w.firstUse && g.UsedExpired == w.usedExpired && g.Class == w.class {
			continue
		}
		if bad < 5 {
			t.Errorf("%s: conn %d: got {DNS %d Gap %v Candidates %d FirstUse %v UsedExpired %v Class %v}, "+
				"reference {DNS %d Gap %v Candidates %d FirstUse %v UsedExpired %v Class %v}",
				label, ci, g.DNS, g.Gap, g.Candidates, g.FirstUse, g.UsedExpired, g.Class,
				w.dns, w.gap, w.candidates, w.firstUse, w.usedExpired, w.class)
		}
		bad++
	}
	if bad > 0 {
		t.Errorf("%s: %d of %d connections differ from the reference", label, bad, len(want))
	}

	checkRefThresholds(t, label, a.Thresholds, th)
	used := make([]bool, len(ds.DNS))
	for i := range want {
		if want[i].dns >= 0 {
			used[want[i].dns] = true
		}
	}
	if !slices.Equal(a.DNSUsed, used) {
		t.Errorf("%s: DNSUsed differs from the records the reference paired", label)
	}
	for c := ClassN; c < numClasses; c++ {
		if a.Count(c) != counts[c] {
			t.Errorf("%s: Count(%v) = %d, reference %d", label, c, a.Count(c), counts[c])
		}
	}
	return counts
}

func checkRefThresholds(t *testing.T, label string, got map[string]time.Duration, want map[netip.Addr]time.Duration) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d derived thresholds, reference %d", label, len(got), len(want))
	}
	for r, th := range want {
		if got[r.String()] != th {
			t.Errorf("%s: resolver %v threshold %v, reference %v", label, r, got[r.String()], th)
		}
	}
}

// Addresses of the hand-built edge trace.
var (
	refHouse4  = netip.MustParseAddr("10.1.0.1")
	refHouse6  = netip.MustParseAddr("2001:db8:10::1")
	refDNSOnly = netip.MustParseAddr("10.1.0.3")
	refNoDNS   = netip.MustParseAddr("10.1.0.4")
	refRes4    = netip.MustParseAddr("10.0.0.2")
	refRes6    = netip.MustParseAddr("2001:db8:53::2")
	refWeb1    = netip.MustParseAddr("198.51.100.7")
	refWeb2    = netip.MustParseAddr("198.51.100.8")
	refWeb3    = netip.MustParseAddr("198.51.100.9")
	refWeb4    = netip.MustParseAddr("198.51.100.10")
	refWeb5    = netip.MustParseAddr("198.51.100.11")
	refWeb6    = netip.MustParseAddr("2001:db8:ff::1")
)

// referenceEdgeTrace is a hand-built trace over the edges of the
// definitions: a zero gap, a gap exactly at the blocking threshold and
// one just past it, a lookup completing just after the connection
// starts (it must not pair), an expired record with a newer one that
// is still fresh and vice versa, lookups and connections with tied
// timestamps, an IPv6 client on an IPv6 resolver, a DNS-only and a
// DNS-less client, an answer section listing one address twice, and
// lookup durations at and past a derived SC/R threshold. refRes4 is popular enough to get a derived threshold:
// its fastest lookup is 3 ms, so its threshold is 8 ms.
func referenceEdgeTrace() *trace.Dataset {
	ms := time.Millisecond
	dns := func(client, res netip.Addr, ts, dur, ttl time.Duration, addrs ...netip.Addr) trace.DNSRecord {
		d := trace.DNSRecord{QueryTS: ts - dur, TS: ts, Client: client, Resolver: res, Query: "edge.example", QType: 1}
		for _, a := range addrs {
			d.Answers = append(d.Answers, trace.Answer{Addr: a, TTL: ttl})
		}
		return d
	}
	conn := func(orig, resp netip.Addr, ts time.Duration) trace.ConnRecord {
		return mkConn(orig, resp, ts, time.Second, 443)
	}
	ds := &trace.Dataset{}
	// 60 lookups by the DNS-only client make refRes4 popular.
	for i := 0; i < 60; i++ {
		ds.DNS = append(ds.DNS, dns(refDNSOnly, refRes4, time.Duration(i)*ms+5*time.Second, 3*ms+time.Duration(i)*ms, time.Minute, refWeb4))
	}
	ds.DNS = append(ds.DNS,
		dns(refHouse4, refRes4, 10*ms, 10*ms, time.Minute, refWeb1),                 // 60: R on refRes4
		dns(refHouse4, refRes4, 202*ms, 8*ms, 30*time.Second, refWeb2),              // 61: at the threshold, SC
		dns(refHouse4, refRes4, 300*ms, 3*ms, time.Minute, refWeb1),                 // 62: a second fresh refWeb1
		dns(refHouse4, refRes4, 500*ms, 9*ms, time.Second, refWeb6),                 // 63: expires at 1.5 s
		dns(refHouse4, refRes4, 600*ms, 4*ms, 10*time.Second, refWeb2),              // 64: fresh until 10.6 s
		dns(refHouse4, refRes4, 700*ms, 4*ms, 100*ms, refWeb2),                      // 65: expired by 800 ms
		dns(refHouse4, refRes4, time.Second, 4*ms, time.Minute, refWeb3),            // 66: tied ...
		dns(refHouse4, refRes4, time.Second, 6*ms, time.Minute, refWeb3),            // 67: ... completion times
		dns(refHouse6, refRes6, 50*ms, 4*ms, time.Minute, refWeb6),                  // 68: IPv6 client
		dns(refHouse6, refRes6, 80*ms, 7*ms, time.Minute, refWeb6, refWeb1),         // 69: two answers
		dns(refHouse4, refRes4, 4*time.Second, 5*ms, time.Minute, refWeb5, refWeb5), // 70: one address twice
	)
	servfail := dns(refHouse4, refRes4, 1200*ms, 40*ms, 0)
	servfail.RCode = 2
	ds.DNS = append(ds.DNS, servfail)
	sort.SliceStable(ds.DNS, func(i, j int) bool { return ds.DNS[i].TS < ds.DNS[j].TS })

	ds.Conns = []trace.ConnRecord{
		conn(refHouse4, refWeb1, 10*ms),              // zero gap on a 10 ms lookup: R
		conn(refHouse6, refWeb6, 60*ms),              // IPv6, 10 ms gap: SC
		conn(refHouse6, refWeb1, 90*ms),              // IPv6 second answer, not refHouse4's lookup: R
		conn(refHouse4, refWeb1, 110*ms),             // gap exactly 100 ms: still blocked, R
		conn(refHouse4, refWeb1, 111*ms),             // one past the threshold: LC
		conn(refHouse4, refWeb2, 201*ms),             // lookup completes 1 ms later: N
		conn(refHouse4, refWeb2, 202*ms),             // zero gap, 8 ms lookup: SC
		conn(refHouse4, refWeb1, 350*ms),             // two fresh candidates
		conn(refHouse4, refWeb2, 900*ms),             // newest expired, older fresh
		conn(refHouse4, refWeb3, time.Second),        // tied lookups, tied ...
		conn(refHouse4, refWeb3, time.Second),        // ... connections
		conn(refHouse4, refWeb6, 2*time.Second),      // only candidate expired
		conn(refNoDNS, refWeb1, 3*time.Second),       // a client that never looked anything up
		conn(refHouse4, refWeb5, 4*time.Second+5*ms), // one candidate, listed twice
		conn(refHouse4, refWeb2, 20*time.Second),     // every refWeb2 lookup but 61 expired
	}
	return ds
}

// TestReferenceEdgeTraceExpectations pins a few of the edge trace's
// verdicts by hand, so the reference itself is checked against the
// definitions it claims to implement.
func TestReferenceEdgeTraceExpectations(t *testing.T) {
	ds := referenceEdgeTrace()
	opts := DefaultOptions()
	got := referenceClassify(ds, opts, refThresholds(ds, opts), nil)
	want := []Class{ClassR, ClassSC, ClassR, ClassR, ClassLC, ClassN, ClassSC, ClassSC, ClassP, ClassSC, ClassSC, ClassP, ClassN, ClassSC, ClassLC}
	for ci, c := range want {
		if got[ci].class != c {
			t.Errorf("conn %d: reference class %v, want %v", ci, got[ci].class, c)
		}
	}
	if got[7].candidates != 2 || got[8].candidates != 2 || got[11].candidates != 0 || !got[11].usedExpired ||
		got[13].candidates != 1 {
		t.Errorf("candidate counts %d/%d/%d/%d (expired %v), want 2/2/0/1 (true)",
			got[7].candidates, got[8].candidates, got[11].candidates, got[13].candidates, got[11].usedExpired)
	}
	if got[9].dns != got[10].dns || !got[9].firstUse || got[10].firstUse {
		t.Errorf("tied connections: records %d/%d, first use %v/%v; want one record, first use on the earlier only",
			got[9].dns, got[10].dns, got[9].firstUse, got[10].firstUse)
	}
}

// TestReferenceClassifier compares the pipeline with the reference on
// every connection of generated traces, with and without faults, and of
// the hand-built edge trace, under both pairing policies at Workers 1
// and 8. The class counts and thresholds of a forced-spill run must
// match the reference too.
func TestReferenceClassifier(t *testing.T) {
	traces := []struct {
		name string
		ds   *trace.Dataset
	}{
		{"determinism", determinismTrace(t)},
		{"faulted", faultedTrace(t)},
		{"edge", referenceEdgeTrace()},
	}
	for _, tr := range traces {
		for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
			opts := DefaultOptions()
			opts.Pairing = pairing
			opts.SCRMinSamples = 50
			var counts [numClasses]int
			for _, workers := range []int{1, 8} {
				opts.Workers = workers
				ds := copyDataset(tr.ds)
				a := Analyze(ds, opts)
				counts = checkReference(t, fmt.Sprintf("%s pairing=%v workers=%d", tr.name, pairing, workers), ds, a)
			}

			o := opts
			o.MemoryBudget = 1
			src := trace.NewDatasetSource(copyDataset(tr.ds))
			src.DS.SortByTime()
			s, err := AnalyzeSource(context.Background(), src, o)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s pairing=%v spilled", tr.name, pairing)
			if !s.Summary() {
				t.Fatalf("%s: the run did not spill", label)
			}
			for c := ClassN; c < numClasses; c++ {
				if s.Count(c) != counts[c] {
					t.Errorf("%s: Count(%v) = %d, reference %d", label, c, s.Count(c), counts[c])
				}
			}
			sorted := copyDataset(tr.ds)
			sorted.SortByTime()
			checkRefThresholds(t, label, s.Thresholds, refThresholds(sorted, o))
		}
	}
}
