package bulk

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

// updateScanGolden regenerates testdata/scan_digest.txt instead of
// comparing against it (for intentional model changes).
var updateScanGolden = flag.Bool("update-scan-golden", false, "rewrite the scan golden digest")

// traceQuarantineAll is the skip-everything feed policy used by tests.
func traceQuarantineAll() trace.ErrorPolicy {
	return trace.ErrorPolicy{Quarantine: true, Budget: trace.UnlimitedBudget()}
}

// runSimToBuf runs one simulated scan into a buffer with the given
// concurrency; everything else about the run is pinned.
func runSimToBuf(t *testing.T, cfg SimConfig, n, concurrency int) (*bytes.Buffer, *Summary) {
	t.Helper()
	b, err := NewSimBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSyntheticSource(b.Zones(), SyntheticConfig{N: n, Seed: cfg.Seed + 1, MissFraction: 0.02})
	var buf bytes.Buffer
	sum, err := RunSim(context.Background(), src, b, Options{Concurrency: concurrency, Output: &buf})
	if err != nil {
		t.Fatal(err)
	}
	return &buf, sum
}

// TestSimDeterministicAcrossConcurrency is the determinism contract:
// the same seed + feed produce a byte-identical JSONL stream (stronger
// than the sorted-digest criterion) at any concurrency. The feed lengths
// put the end of the feed on, just before and just after a batch
// boundary, and inside a final partial batch.
func TestSimDeterministicAcrossConcurrency(t *testing.T) {
	cfg := SimConfig{Shards: 16, Seed: 42, ArrivalQPS: 20000, ZoneNames: 500}
	for _, n := range []int{0, 1, simBatch - 1, simBatch, simBatch + 1, 20000} {
		ref, refSum := runSimToBuf(t, cfg, n, 1)
		for _, conc := range []int{2, 4, 8} {
			got, gotSum := runSimToBuf(t, cfg, n, conc)
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatalf("n %d, concurrency %d: output differs from the concurrency-1 run", n, conc)
			}
			if !sameSummary(refSum, gotSum) {
				t.Fatalf("n %d, concurrency %d: summary differs: %+v vs %+v", n, conc, refSum, gotSum)
			}
		}
		if refSum.Queries != uint64(n) {
			t.Fatalf("queries = %d, want %d", refSum.Queries, n)
		}
		if got := bytes.Count(ref.Bytes(), []byte{'\n'}); got != n {
			t.Fatalf("n %d: stream has %d lines", n, got)
		}
		if n == 20000 {
			if refSum.Count(StatusNXDomain) == 0 {
				t.Fatal("miss fraction produced no NXDOMAIN")
			}
			if refSum.Coalesced == 0 {
				t.Fatal("popular names under a Zipf feed should coalesce")
			}
		}
	}
}

// sameSummary compares every Summary field except the wall-clock ones.
func sameSummary(a, b *Summary) bool {
	x, y := *a, *b
	x.Wall, x.QPS, y.Wall, y.QPS = 0, 0, 0, 0
	return x == y
}

// TestSimMetricsGolden pins the dnsscan_* registry snapshot of a fixed
// simulated run — counters, per-status results, and the lookup timer's
// buckets, count and sum — at concurrency 1, 2 and 8. The timer's sum is
// a float folded one lookup at a time, so it holds only if the metrics
// fold sees results in feed order. The hash was captured at commit
// 552ddf5, whose loop resolved, folded and wrote one batch at a time.
func TestSimMetricsGolden(t *testing.T) {
	const want = uint64(0x8277cd067bf3bf00)
	cfg := SimConfig{Shards: 32, Seed: 1, ArrivalQPS: 50000, ZoneNames: 1000, Platform: resolver.PlatformLocal}
	for _, conc := range []int{1, 2, 8} {
		b, err := NewSimBackend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSyntheticSource(b.Zones(), SyntheticConfig{N: 50000, Seed: cfg.Seed + 1, MissFraction: 0.02})
		reg := obs.NewRegistry()
		if _, err := RunSim(context.Background(), src, b, Options{Concurrency: conc, Metrics: reg, Output: io.Discard}); err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		for _, f := range reg.Snapshot().Families {
			if strings.HasPrefix(f.Name, "dnsscan_") {
				snap.Families = append(snap.Families, f)
			}
		}
		js, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(js)
		if got := h.Sum64(); got != want {
			t.Fatalf("concurrency %d: metrics hash %#x, want %#x\n%s", conc, got, want, js)
		}
	}
}

// zoneFeed returns n feed lines cycling through the namespace's names.
func zoneFeed(b *SimBackend, n, zoneNames int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(b.Zones().ByRank(i % zoneNames).Host)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSimFeedErrorFlushesWholeLines: a strict feed that fails after
// 33,000 good lines (four batches and part of a fifth) must still answer
// every line before the failing one, write them all as whole lines —
// the same bytes a clean feed of those lines writes — and return the
// partial summary alongside the feed error.
func TestSimFeedErrorFlushesWholeLines(t *testing.T) {
	const good, zoneNames = 33000, 301
	cfg := SimConfig{Shards: 8, Seed: 3, ZoneNames: zoneNames}
	run := func(feed string) ([]byte, *Summary, error) {
		b, err := NewSimBackend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sum, err := RunSim(context.Background(), NewFeed(strings.NewReader(feed), dnswire.TypeA, trace.Strict()), b, Options{Concurrency: 4, Output: &buf})
		return buf.Bytes(), sum, err
	}
	b, err := NewSimBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := zoneFeed(b, good, zoneNames)
	want, wantSum, err := run(lines)
	if err != nil {
		t.Fatal(err)
	}
	got, sum, err := run(lines + "a.example A extra\n" + zoneFeed(b, 100, zoneNames))
	if !errors.Is(err, errExtraFields) {
		t.Fatalf("err = %v, want the feed's extra-fields error", err)
	}
	if sum == nil {
		t.Fatal("no summary returned with the feed error")
	}
	if sum.Queries != good || !sameSummary(sum, wantSum) {
		t.Fatalf("summary %+v, want that of the %d good lines %+v", sum, good, wantSum)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output (%d bytes, %d lines) differs from the clean run over the good lines (%d bytes)",
			len(got), bytes.Count(got, []byte{'\n'}), len(want))
	}
}

// cancelAfter is a Source that cancels the run's context once it has
// yielded n queries, then keeps yielding.
type cancelAfter struct {
	Source
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Scan() bool {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	return c.Source.Scan()
}

// TestSimCancelStopsAtBatchBoundary: cancelling a run mid-feed returns
// the context's error with the partial summary, and the output holds
// only whole batches — a byte prefix of the uncancelled run's stream.
// The cancel lands while batch 3 is read, batch 2 resolves and batch 1
// is already written, so batch 2 is the only one in doubt.
func TestSimCancelStopsAtBatchBoundary(t *testing.T) {
	cfg := SimConfig{Shards: 16, Seed: 5, ArrivalQPS: 20000, ZoneNames: 500}
	const n = 6 * simBatch
	full, _ := runSimToBuf(t, cfg, n, 2)
	b, err := NewSimBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfter{
		Source: NewSyntheticSource(b.Zones(), SyntheticConfig{N: n, Seed: cfg.Seed + 1, MissFraction: 0.02}),
		n:      3*simBatch + 100,
		cancel: cancel,
	}
	var buf bytes.Buffer
	sum, err := RunSim(ctx, src, b, Options{Concurrency: 2, Output: &buf})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum == nil {
		t.Fatal("no summary returned with the cancellation")
	}
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	if uint64(lines) != sum.Queries || (lines != 2*simBatch && lines != 3*simBatch) {
		t.Fatalf("%d lines written, summary counts %d; want both to be 2 or 3 whole batches", lines, sum.Queries)
	}
	if !bytes.HasPrefix(full.Bytes(), buf.Bytes()) {
		t.Fatal("the cancelled run's output is not a prefix of the full run's")
	}
}

// TestSimWriteErrorStopsRun: a sticky output failure ends the run with
// the write error instead of stalling the pipeline.
func TestSimWriteErrorStopsRun(t *testing.T) {
	b, err := NewSimBackend(SimConfig{Shards: 8, Seed: 3, ZoneNames: 300})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSyntheticSource(b.Zones(), SyntheticConfig{N: 4 * simBatch, Seed: 4})
	sum, err := RunSim(context.Background(), src, b, Options{Concurrency: 2, Output: errWriter{}})
	if sum != nil || err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sum=%v err=%v, want the write error", sum, err)
	}
}

// TestSimShardsArePartOfTheExperiment: unlike concurrency, the shard
// count changes which queries share a cache, so it changes results.
func TestSimShardsArePartOfTheExperiment(t *testing.T) {
	const n = 5000
	a, _ := runSimToBuf(t, SimConfig{Shards: 4, Seed: 42, ArrivalQPS: 20000, ZoneNames: 500}, n, 4)
	b, _ := runSimToBuf(t, SimConfig{Shards: 32, Seed: 42, ArrivalQPS: 20000, ZoneNames: 500}, n, 4)
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("different shard counts produced identical streams; sharding is not reaching the model")
	}
}

// TestSimNoCoalesceDisablesWindows: with coalescing off, no result may
// carry the coalesced flag and the summary count stays zero.
func TestSimNoCoalesceDisablesWindows(t *testing.T) {
	cfg := SimConfig{Shards: 8, Seed: 42, ArrivalQPS: 50000, ZoneNames: 200}
	b, err := NewSimBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSyntheticSource(b.Zones(), SyntheticConfig{N: 5000, Seed: 1})
	var buf bytes.Buffer
	sum, err := RunSim(context.Background(), src, b, Options{NoCoalesce: true, Output: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coalesced != 0 {
		t.Fatalf("coalesced = %d with NoCoalesce", sum.Coalesced)
	}
	if strings.Contains(buf.String(), `"coalesced":true`) {
		t.Fatal("output carries coalesced results with NoCoalesce")
	}
}

// TestSimJSONLWellFormed: every output line must be valid JSON with the
// required fields — the hand-rolled encoder gets no second chances at
// 1M lines per run.
func TestSimJSONLWellFormed(t *testing.T) {
	buf, _ := runSimToBuf(t, SimConfig{Shards: 8, Seed: 7, ArrivalQPS: 20000, ZoneNames: 300}, 2000, 4)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2000 {
		t.Fatalf("lines = %d, want 2000", len(lines))
	}
	for i, line := range lines {
		var rec struct {
			I        *uint64 `json:"i"`
			Name     string  `json:"name"`
			Type     string  `json:"type"`
			Status   string  `json:"status"`
			RCode    *uint8  `json:"rcode"`
			MS       float64 `json:"ms"`
			Attempts int     `json:"attempts"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if rec.I == nil || *rec.I != uint64(i) {
			t.Fatalf("line %d: index field %v", i, rec.I)
		}
		if rec.Name == "" || rec.Status == "" || rec.RCode == nil || rec.Attempts < 1 {
			t.Fatalf("line %d: missing fields: %s", i, line)
		}
	}
}

// scanGoldenDigest computes the gate digest: sha256 over the sorted
// JSONL lines (sorting makes the digest stream-order independent, so
// the same gate can cover engines that emit out of feed order).
func scanGoldenDigest(data []byte) string {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScanGoldenDigest is the `make scan` gate: a pinned scan (fixed
// seed, synthetic feed, default platform) must reproduce the digest
// committed in testdata/scan_digest.txt at several concurrencies. A
// mismatch means the simulated path's results changed — either a bug,
// or an intentional model change that must update the golden file
// (run with -update-scan-golden).
func TestScanGoldenDigest(t *testing.T) {
	cfg := SimConfig{Shards: 32, Seed: 1, ArrivalQPS: 50000, ZoneNames: 1000, Platform: resolver.PlatformLocal}
	const n = 50000
	golden := filepath.Join("testdata", "scan_digest.txt")

	var digests []string
	for _, conc := range []int{1, 8} {
		buf, _ := runSimToBuf(t, cfg, n, conc)
		digests = append(digests, scanGoldenDigest(buf.Bytes()))
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest varies with concurrency: %s vs %s", digests[0], digests[1])
	}

	if *updateScanGolden {
		if err := os.WriteFile(golden, []byte(digests[0]+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with: go test ./internal/bulk -run TestScanGoldenDigest -update-scan-golden)", err)
	}
	if got := digests[0]; got != strings.TrimSpace(string(want)) {
		t.Fatalf("scan digest %s, want %s\nthe simulated path's results changed; if intentional, regenerate with -update-scan-golden", got, strings.TrimSpace(string(want)))
	}
}

// TestSimSummaryConsistency: the summary must agree with the stream it
// summarizes.
func TestSimSummaryConsistency(t *testing.T) {
	buf, sum := runSimToBuf(t, SimConfig{Shards: 8, Seed: 9, ArrivalQPS: 20000, ZoneNames: 300}, 3000, 4)
	var total uint64
	for st := StatusNoError; st < numStatuses; st++ {
		total += sum.Count(st)
	}
	if total != sum.Queries || sum.Queries != 3000 {
		t.Fatalf("status counts sum to %d, queries %d", total, sum.Queries)
	}
	if got := uint64(strings.Count(buf.String(), "\n")); got != sum.Queries {
		t.Fatalf("stream has %d lines, summary says %d", got, sum.Queries)
	}
	if sum.LatP50 <= 0 || sum.LatP99 < sum.LatP50 || sum.LatMax < sum.LatP99 {
		t.Fatalf("latency percentiles out of order: %+v", sum)
	}
	coalesced := uint64(strings.Count(buf.String(), `"coalesced":true`))
	if coalesced != sum.Coalesced {
		t.Fatalf("stream has %d coalesced results, summary says %d", coalesced, sum.Coalesced)
	}
}

// TestWriteSummary smoke-checks the human rollup.
func TestWriteSummary(t *testing.T) {
	_, sum := runSimToBuf(t, SimConfig{Shards: 4, Seed: 3, ArrivalQPS: 20000, ZoneNames: 200}, 1000, 2)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"queries", "qps", "NOERROR", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestSimFeedSkipAccounting: a dirty file feed's skip count must reach
// the summary.
func TestSimFeedSkipAccounting(t *testing.T) {
	b, err := NewSimBackend(SimConfig{Shards: 4, Seed: 5, ZoneNames: 200})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 20; i++ {
		names = append(names, b.Zones().ByRank(i).Host)
	}
	in := strings.Join(names[:10], "\n") + "\nbad line here extra\n" + strings.Join(names[10:], "\n") + "\n"
	src := NewFeed(strings.NewReader(in), dnswire.TypeA, traceQuarantineAll())
	sum, err := RunSim(context.Background(), src, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != 20 || sum.SkippedLines != 1 {
		t.Fatalf("queries %d skipped %d, want 20 and 1", sum.Queries, sum.SkippedLines)
	}
}

func BenchmarkBulkScanSim(b *testing.B) {
	const n = 1_000_000
	b.ReportAllocs()
	b.ResetTimer()
	var sum *Summary
	for i := 0; i < b.N; i++ {
		// A fresh backend per iteration: shard caches and coalescing
		// windows are keyed to the virtual clock, which restarts with
		// every run. Setup stays off the clock.
		b.StopTimer()
		be, err := NewSimBackend(SimConfig{Shards: 64, Seed: 1, ArrivalQPS: 50000})
		if err != nil {
			b.Fatal(err)
		}
		src := NewSyntheticSource(be.Zones(), SyntheticConfig{N: n, Seed: 2, MissFraction: 0.01})
		b.StartTimer()
		sum, err = RunSim(context.Background(), src, be, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(sum.QPS, "qps")
	b.ReportMetric(sum.LatP50, "p50_ms")
	b.ReportMetric(sum.LatP99, "p99_ms")
	b.ReportMetric(float64(sum.Coalesced), "coalesced")
	if sum.Queries != n {
		b.Fatalf("queries = %d, want %d", sum.Queries, n)
	}
}
