package core

import (
	"bytes"
	"context"
	"net/netip"
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
	var total int64
	for i := range ds.DNS {
		total += retainedDNSBytes(&ds.DNS[i])
	}
	total += int64(len(ds.Conns)) * retainedConnBytes()
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
			run := newStreamRun(o)
			src := &tripProbe{Source: trace.NewDatasetSource(ds), run: run}
			err := run.ingest(context.Background(), src)
			var sh *AnalysisShard
			if err == nil {
				sh, err = run.collect(context.Background())
			}
			run.cleanup()
			if err != nil {
				t.Fatalf("pairing=%v budget=%.2f: %v", pairing, frac, err)
			}
			if !run.spilled {
				t.Fatalf("pairing=%v budget=%.2f: budget never tripped", pairing, frac)
			}
			tripped[src.stream] = true
			a := sh.Finalize()
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

	var traceBytes int64
	for i := range ds.DNS {
		traceBytes += retainedDNSBytes(&ds.DNS[i])
	}
	traceBytes += int64(len(ds.Conns)) * retainedConnBytes()
	if traceBytes < 10*opts.MemoryBudget {
		t.Fatalf("test trace too small: %d bytes retained vs budget %d; want >=10x", traceBytes, opts.MemoryBudget)
	}

	run := newStreamRun(opts)
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
	sh, err := run.collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sh.ConnTotal() != len(ds.Conns) || sh.DNSTotal() != len(ds.DNS) {
		t.Errorf("shard covers %d conns / %d dns, want %d / %d",
			sh.ConnTotal(), sh.DNSTotal(), len(ds.Conns), len(ds.DNS))
	}
}

// TestRetainedChargesCoverRecordSizes fails if a budget charge falls
// below the in-memory size of what it charges for, which would let
// WithMemoryBudget keep more record bytes resident than it promises.
func TestRetainedChargesCoverRecordSizes(t *testing.T) {
	if got, size := retainedConnBytes(), int64(unsafe.Sizeof(trace.ConnRecord{})); got < size {
		t.Errorf("connection charge %d B is below sizeof(ConnRecord) = %d B", got, size)
	}
	for _, n := range []int{0, 1, 4} {
		d := trace.DNSRecord{Query: "www.example.com", Answers: make([]trace.Answer, n)}
		size := int64(unsafe.Sizeof(d)) + int64(len(d.Query)) + int64(n)*int64(unsafe.Sizeof(trace.Answer{}))
		if got := retainedDNSBytes(&d); got < size {
			t.Errorf("DNS charge with %d answers is %d B, below its size %d B", n, got, size)
		}
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
