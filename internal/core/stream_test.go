package core

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dnscontext/internal/trace"
)

// forceSpillOpts returns options with a memory budget small enough that
// any realistic test trace trips the spill immediately.
func forceSpillOpts(opts Options) Options {
	opts.MemoryBudget = 4 << 10
	return opts
}

// summaryBytes renders the analysis' summary report, the common output
// surface of the in-memory and streamed paths.
func summaryBytes(t *testing.T, a *Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamParityWithInMemory is the tentpole's golden parity gate: a
// forced-spill streaming run must produce the same digest, class
// counts, thresholds, and summary bytes as the in-memory pipeline, at
// every worker count and under both pairing policies.
func TestStreamParityWithInMemory(t *testing.T) {
	ds := determinismTrace(t)
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := DefaultOptions()
		opts.Pairing = pairing
		opts.SCRMinSamples = 50
		ref := analyzeCopy(ds, opts)
		wantSummary := summaryBytes(t, ref)

		for _, workers := range []int{1, 2, 8} {
			o := forceSpillOpts(opts)
			o.Workers = workers
			src := trace.NewDatasetSource(&trace.Dataset{
				DNS:   append([]trace.DNSRecord(nil), ds.DNS...),
				Conns: append([]trace.ConnRecord(nil), ds.Conns...),
			})
			src.DS.SortByTime()
			a, err := AnalyzeSource(context.Background(), src, o)
			if err != nil {
				t.Fatalf("pairing=%v workers=%d: %v", pairing, workers, err)
			}
			if !a.Summary() {
				t.Fatalf("pairing=%v workers=%d: forced-spill run returned a full analysis", pairing, workers)
			}
			if got, want := a.Digest(), ref.Digest(); got != want {
				t.Errorf("pairing=%v workers=%d: digest %#016x, want %#016x", pairing, workers, got, want)
			}
			for c := ClassN; c < numClasses; c++ {
				if a.Count(c) != ref.Count(c) {
					t.Errorf("pairing=%v workers=%d: class %v count %d, want %d",
						pairing, workers, c, a.Count(c), ref.Count(c))
				}
			}
			if len(a.Thresholds) != len(ref.Thresholds) {
				t.Errorf("pairing=%v workers=%d: %d thresholds, want %d",
					pairing, workers, len(a.Thresholds), len(ref.Thresholds))
			}
			for r, th := range ref.Thresholds {
				if a.Thresholds[r] != th {
					t.Errorf("pairing=%v workers=%d: resolver %s threshold %v, want %v",
						pairing, workers, r, a.Thresholds[r], th)
				}
			}
			if got := summaryBytes(t, a); !bytes.Equal(got, wantSummary) {
				t.Errorf("pairing=%v workers=%d: summary bytes differ from in-memory:\n--- stream ---\n%s\n--- in-memory ---\n%s",
					pairing, workers, got, wantSummary)
			}
		}
	}
}

// tripProbe notes which stream the memory budget tripped in.
type tripProbe struct {
	trace.Source
	run    *streamRun
	stream string
}

func (p *tripProbe) StreamDNS(yield func(*trace.DNSRecord) error) error {
	err := p.Source.StreamDNS(yield)
	p.stream = "conn"
	if p.run.spilled {
		p.stream = "dns"
	}
	return err
}

// TestStreamTripPointParity moves the budget trip from early in the DNS
// stream to late in the connection stream. Records resident at the trip
// are folded into the whole-trace accumulators only then, so the result
// must still match the in-memory pipeline wherever the trip lands.
func TestStreamTripPointParity(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	total := retainedBytes(t, ds)
	tripped := map[string]bool{}
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := DefaultOptions()
		opts.Pairing = pairing
		opts.SCRMinSamples = 50
		ref := analyzeCopy(ds, opts)
		wantSummary := summaryBytes(t, ref)
		for _, frac := range []float64{0.25, 0.5, 0.75, 0.95} {
			o := opts.withDefaults()
			o.MemoryBudget = int64(frac * float64(total))
			run := &streamRun{opts: o}
			src := &tripProbe{Source: trace.NewDatasetSource(ds), run: run}
			a, err := run.analyzeSource(context.Background(), src)
			run.cleanup()
			if err != nil {
				t.Fatalf("pairing=%v budget=%.2f: %v", pairing, frac, err)
			}
			if !run.spilled {
				t.Fatalf("pairing=%v budget=%.2f: budget never tripped", pairing, frac)
			}
			tripped[src.stream] = true
			if got, want := a.Digest(), ref.Digest(); got != want {
				t.Errorf("pairing=%v budget=%.2f (trip in %s): digest %#016x, want %#016x",
					pairing, frac, src.stream, got, want)
			}
			if got := summaryBytes(t, a); !bytes.Equal(got, wantSummary) {
				t.Errorf("pairing=%v budget=%.2f (trip in %s): summary differs from in-memory:\n%s\n--- want ---\n%s",
					pairing, frac, src.stream, got, wantSummary)
			}
		}
	}
	if !tripped["dns"] || !tripped["conn"] {
		t.Fatalf("trips landed only in %v; want both streams covered", tripped)
	}
}

// TestStreamResidentPathMatchesInMemory checks the no-spill streaming
// path (budget never trips) short-circuits to the exact in-memory
// result, including the full (non-summary) analysis grade.
func TestStreamResidentPathMatchesInMemory(t *testing.T) {
	ds := determinismTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	ref := analyzeCopy(ds, opts)

	src := trace.NewDatasetSource(&trace.Dataset{
		DNS:   append([]trace.DNSRecord(nil), ds.DNS...),
		Conns: append([]trace.ConnRecord(nil), ds.Conns...),
	})
	a, err := AnalyzeSource(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() {
		t.Fatal("unbudgeted dataset source should produce a full analysis")
	}
	if a.Digest() != ref.Digest() {
		t.Errorf("digest %#016x, want %#016x", a.Digest(), ref.Digest())
	}
}

// TestStreamBoundedResidency is the out-of-core success criterion: with
// a budget far smaller than the trace, ingestion must complete while
// never retaining more than the budget plus one record's slack.
func TestStreamBoundedResidency(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	opts := DefaultOptions().withDefaults()
	opts.MemoryBudget = 8 << 10

	traceBytes := retainedBytes(t, ds)
	if traceBytes < 10*opts.MemoryBudget {
		t.Fatalf("test trace too small: %d bytes retained vs budget %d; want >=10x", traceBytes, opts.MemoryBudget)
	}

	run := &streamRun{opts: opts}
	defer run.cleanup()
	if err := run.ingest(context.Background(), trace.NewDatasetSource(ds)); err != nil {
		t.Fatal(err)
	}
	if !run.spilled {
		t.Fatal("budget never tripped")
	}
	// account() charges a record, and any block opened for it, before
	// checking, so the peak may exceed the budget by one record plus
	// one block, which doubling keeps no larger than what was retained.
	const maxRecord = 64 << 10
	if run.peakRetained > opts.MemoryBudget+maxRecord {
		t.Errorf("peak retained %d bytes exceeds budget %d + slack", run.peakRetained, opts.MemoryBudget)
	}
	var mu sync.Mutex
	var conns, dns int
	if err := run.collect(context.Background(), func(c clientResult) {
		mu.Lock()
		conns, dns = conns+len(c.entries), dns+int(c.nDNS)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if conns != len(ds.Conns) || dns != len(ds.DNS) {
		t.Errorf("classified clients cover %d conns / %d dns, want %d / %d",
			conns, dns, len(ds.Conns), len(ds.DNS))
	}
}

// retainedBytes is the most a budget is charged for the time-sorted
// ds held resident: the peak charge of an unbudgeted ingest, block
// slack included.
func retainedBytes(t *testing.T, ds *trace.Dataset) int64 {
	t.Helper()
	run := &streamRun{opts: DefaultOptions().withDefaults()}
	if err := run.ingest(context.Background(), trace.NewDatasetSource(ds)); err != nil {
		t.Fatal(err)
	}
	return run.peakRetained
}

// TestRetainedChargesCoverRecordSizes fails if a budget charge falls
// below the in-memory size of what it charges for, which would let
// WithMemoryBudget keep more bytes resident than it promises: each
// compact record type, and each entry a record adds to the store's
// tables. It then checks that a resident ingest charges every record,
// answer and table entry it holds.
func TestRetainedChargesCoverRecordSizes(t *testing.T) {
	addr, i32 := int64(unsafe.Sizeof(netip.Addr{})), int64(unsafe.Sizeof(int32(0)))
	for _, c := range []struct {
		what         string
		charge, size int64
	}{
		{"DNS record", dnsRecBytes, int64(unsafe.Sizeof(dnsRec{}))},
		{"answer", answerRecBytes, int64(unsafe.Sizeof(answerRec{}))},
		{"connection", connRecBytes, int64(unsafe.Sizeof(connRec{}))},
		// A table slot plus a map key and value.
		{"address entry", addrEntryBytes, 2*addr + i32},
		{"resolver entry", resolverEntryBytes, int64(unsafe.Sizeof(resolverStat{})) + addr + i32},
		// A name's bytes are charged on top: two string headers (the
		// table's slice and its map key) and the symbol.
		{"name entry", nameEntryBytes, 2*int64(unsafe.Sizeof("")) + i32},
	} {
		if c.charge < c.size {
			t.Errorf("%s charge %d B is below its size %d B", c.what, c.charge, c.size)
		}
	}

	ds := determinismTrace(t)
	ds.SortByTime()
	run := &streamRun{opts: DefaultOptions().withDefaults()}
	if err := run.ingest(context.Background(), trace.NewDatasetSource(ds)); err != nil {
		t.Fatal(err)
	}
	st := run.store()
	want := int64(len(st.dns))*dnsRecBytes + int64(len(st.answers))*answerRecBytes +
		int64(len(st.conns))*connRecBytes + int64(len(st.addrs))*addrEntryBytes +
		int64(len(st.resolvers))*resolverEntryBytes
	for s := 0; s < st.names.Len(); s++ {
		want += nameEntryBytes + int64(len(st.names.Name(trace.Sym(s))))
	}
	if run.retained < want {
		t.Errorf("resident ingest charged %d B for %d B of records and table entries", run.retained, want)
	}
}

// splitByClient partitions the dataset into n client-disjoint
// sub-datasets, the shape of a multi-process -stream deployment.
func splitByClient(ds *trace.Dataset, n int) []*trace.Dataset {
	group := make(map[netip.Addr]int)
	next := 0
	pick := func(client netip.Addr) int {
		g, ok := group[client]
		if !ok {
			g = next % n
			group[client] = g
			next++
		}
		return g
	}
	parts := make([]*trace.Dataset, n)
	for i := range parts {
		parts[i] = &trace.Dataset{}
	}
	for i := range ds.DNS {
		g := pick(ds.DNS[i].Client)
		parts[g].DNS = append(parts[g].DNS, ds.DNS[i])
	}
	for i := range ds.Conns {
		g := pick(ds.Conns[i].Orig)
		parts[g].Conns = append(parts[g].Conns, ds.Conns[i])
	}
	return parts
}

// TestMultiProcessMergeMatchesInMemory simulates the distributed
// deployment: three collectors each CollectShard over a client-disjoint
// slice (one resident, two forced to spill), the shards merge, and the
// finalized result must be digest-identical to one in-memory run over
// the whole trace. PairMostRecent only — under PairRandom the RNG
// streams are seeded by process-local ranks (documented caveat).
func TestMultiProcessMergeMatchesInMemory(t *testing.T) {
	ds := determinismTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	ref := analyzeCopy(ds, opts)

	parts := splitByClient(ds, 3)
	shards := make([]*AnalysisShard, len(parts))
	for i, part := range parts {
		o := opts
		if i > 0 {
			o = forceSpillOpts(o)
		}
		part.SortByTime()
		sh, err := CollectShard(context.Background(), trace.NewDatasetSource(part), o)
		if err != nil {
			t.Fatalf("collector %d: %v", i, err)
		}
		shards[i] = sh
	}
	merged, err := MergeShards(shards...)
	if err != nil {
		t.Fatal(err)
	}
	a := merged.Finalize()
	if a.Digest() != ref.Digest() {
		t.Errorf("merged digest %#016x, want %#016x", a.Digest(), ref.Digest())
	}
	if got, want := summaryBytes(t, a), summaryBytes(t, ref); !bytes.Equal(got, want) {
		t.Errorf("merged summary differs from in-memory:\n--- merged ---\n%s\n--- in-memory ---\n%s", got, want)
	}
}

// repeatTrace returns the time-sorted ds followed by n-1 copies of
// itself, each shifted past the end of the one before: the same clients
// and resolvers, n times the records.
func repeatTrace(ds *trace.Dataset, n int) *trace.Dataset {
	ds.SortByTime()
	var span time.Duration
	if len(ds.DNS) > 0 {
		span = ds.DNS[len(ds.DNS)-1].TS
	}
	if len(ds.Conns) > 0 {
		span = max(span, ds.Conns[len(ds.Conns)-1].TS)
	}
	span += time.Hour
	out := &trace.Dataset{}
	for k := range n {
		shift := time.Duration(k) * span
		for _, d := range ds.DNS {
			d.QueryTS += shift
			d.TS += shift
			out.DNS = append(out.DNS, d)
		}
		for _, c := range ds.Conns {
			c.TS += shift
			out.Conns = append(out.Conns, c)
		}
	}
	return out
}

// budgetedLiveHeap runs a budgeted AnalyzeSource over a private copy of
// ds and returns the analysis with the heap it keeps live: the live
// heap after a collection with the analysis held, less the live heap
// before the run.
func budgetedLiveHeap(t *testing.T, ds *trace.Dataset, opts Options) (*Analysis, int64) {
	t.Helper()
	src := trace.NewDatasetSource(&trace.Dataset{
		DNS:   append([]trace.DNSRecord(nil), ds.DNS...),
		Conns: append([]trace.ConnRecord(nil), ds.Conns...),
	})
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	a, err := AnalyzeSource(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(src)
	return a, int64(m.HeapAlloc) - int64(before)
}

// TestBudgetedAnalysisHoldsNoPerConnectionState pins what a budgeted
// AnalyzeSource keeps: under one budget, a trace and the same trace
// repeated four times over (the same clients and resolvers, four times
// the connections) must return analyses that keep the same live heap,
// where keeping each connection's 40-byte pairing facts would grow it
// by 40 B per connection. Both must match the in-memory run's Digest
// and Table2 under both pairing policies.
func TestBudgetedAnalysisHoldsNoPerConnectionState(t *testing.T) {
	base := repeatTrace(determinismTrace(t), 4)
	traces := []*trace.Dataset{base, repeatTrace(base, 4)}
	extra := len(traces[1].Conns) - len(traces[0].Conns)
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := DefaultOptions()
		opts.Pairing = pairing
		opts.SCRMinSamples = 50
		o := opts
		o.MemoryBudget = 64 << 10
		budgetedLiveHeap(t, base, o) // warm the runtime's one-time allocations
		var kept [2]int64
		for i, ds := range traces {
			ref := analyzeCopy(ds, opts)
			a, live := budgetedLiveHeap(t, ds, o)
			if !a.Summary() {
				t.Fatalf("pairing=%v: a %d-connection trace did not spill", pairing, len(ds.Conns))
			}
			if a.Digest() != ref.Digest() {
				t.Errorf("pairing=%v, %d connections: digest %#016x, want %#016x",
					pairing, len(ds.Conns), a.Digest(), ref.Digest())
			}
			if got, want := a.Table2(), ref.Table2(); !reflect.DeepEqual(got, want) {
				t.Errorf("pairing=%v, %d connections: Table2 %v, want %v", pairing, len(ds.Conns), got, want)
			}
			kept[i] = live
			t.Logf("pairing=%v: %d connections, the analysis keeps %d B live", pairing, len(ds.Conns), live)
		}
		// Four bytes per added connection is far below the 40 that
		// pairing facts take and far above the collector's noise.
		if grow := kept[1] - kept[0]; grow > 4*int64(extra) {
			t.Errorf("pairing=%v: the kept heap grew by %d B for %d more connections (%.1f B each)",
				pairing, grow, extra, float64(grow)/float64(extra))
		}
	}
}

// TestStreamRejectsOutOfOrderSource checks the ingest-time ordering
// contract: a source yielding decreasing timestamps must fail with a
// descriptive error rather than silently misclassify.
func TestStreamRejectsOutOfOrderSource(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			{TS: 2 * time.Second, Client: netip.MustParseAddr("10.0.0.1")},
			{TS: 1 * time.Second, Client: netip.MustParseAddr("10.0.0.1")},
		},
	}
	src := unsortedSource{ds}
	opts := DefaultOptions()
	opts.MemoryBudget = 1
	_, err := AnalyzeSource(context.Background(), src, opts)
	if err == nil {
		t.Fatal("out-of-order source accepted")
	}
}

// unsortedSource yields the dataset as-is, without the DatasetSource's
// time sort, to exercise the ordering check.
type unsortedSource struct{ ds *trace.Dataset }

func (s unsortedSource) StreamDNS(yield func(*trace.DNSRecord) error) error {
	for i := range s.ds.DNS {
		if err := yield(&s.ds.DNS[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s unsortedSource) StreamConns(yield func(*trace.ConnRecord) error) error {
	for i := range s.ds.Conns {
		if err := yield(&s.ds.Conns[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamCancellation checks a cancelled context aborts ingestion
// with a wrapped context error and no partial result.
func TestStreamCancellation(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.MemoryBudget = 1
	a, err := AnalyzeSource(ctx, trace.NewDatasetSource(ds), opts)
	if err == nil || a != nil {
		t.Fatalf("cancelled run returned (%v, %v), want (nil, error)", a, err)
	}
}
