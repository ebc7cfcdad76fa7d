package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// TestParallelIngestGoldenParity is the tentpole determinism gate for
// the chunked-ingest + prep-overlap path: AnalyzeSource over a TSV
// ScannerSource must produce bit-identical golden hashes and Digest at
// every Workers count, under both pairing policies. Ingest parses
// through the chunk pipeline on the Workers pool width, one included.
// The reference is one serial in-memory analysis of the records the
// serial scanners (ReadDNS/ReadConns) parse from the same bytes (the
// TSV format rounds timestamps to microseconds, so the reference must
// come from the roundtripped dataset, not the generator's).
func TestParallelIngestGoldenParity(t *testing.T) {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.SortByTime()
	var dnsBuf, connBuf bytes.Buffer
	if err := trace.WriteDNS(&dnsBuf, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteConns(&connBuf, ds.Conns); err != nil {
		t.Fatal(err)
	}
	dnsTSV, connTSV := dnsBuf.String(), connBuf.String()

	parsedDNS, err := trace.ReadDNS(strings.NewReader(dnsTSV))
	if err != nil {
		t.Fatal(err)
	}
	parsedConns, err := trace.ReadConns(strings.NewReader(connTSV))
	if err != nil {
		t.Fatal(err)
	}

	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := DefaultOptions()
		opts.Pairing = pairing
		opts.SCRMinSamples = 50
		parsed := &trace.Dataset{DNS: parsedDNS, Conns: parsedConns}
		ref := analyzeCopy(parsed, opts)
		wantReport, wantPaired, wantCheckpoint := hashAnalysis(t, ref, collectCopy(t, parsed, opts), eco.Profiles)

		for _, workers := range []int{1, 2, 8} {
			o := opts
			o.Workers = workers
			src := trace.NewScannerSource(
				strings.NewReader(dnsTSV), strings.NewReader(connTSV), trace.Strict())
			a, err := AnalyzeSource(context.Background(), src, o)
			if err != nil {
				t.Fatalf("pairing=%v workers=%d: %v", pairing, workers, err)
			}
			if a.Summary() {
				t.Fatalf("pairing=%v workers=%d: unbudgeted scanner source returned a summary analysis",
					pairing, workers)
			}
			sh, err := CollectShard(context.Background(), trace.NewScannerSource(
				strings.NewReader(dnsTSV), strings.NewReader(connTSV), trace.Strict()), o)
			if err != nil {
				t.Fatalf("pairing=%v workers=%d: collecting the shard: %v", pairing, workers, err)
			}
			report, paired, checkpoint := hashAnalysis(t, a, sh, eco.Profiles)
			if report != wantReport || paired != wantPaired || checkpoint != wantCheckpoint {
				t.Errorf("pairing=%v workers=%d: hashes (%#016x %#016x %#016x), want (%#016x %#016x %#016x)",
					pairing, workers, report, paired, checkpoint, wantReport, wantPaired, wantCheckpoint)
			}
			if a.Digest() != ref.Digest() {
				t.Errorf("pairing=%v workers=%d: digest %#016x, want %#016x",
					pairing, workers, a.Digest(), ref.Digest())
			}
		}
	}
}

// TestParallelSymbolRemapDeterminism pins the chunk-local-to-global
// symbol remap of the record store build directly: the chunked
// conversion must produce the serial conversion's records, tables,
// numbering and fused resolver stats at every worker count, including
// widths that force many small chunks.
func TestParallelSymbolRemapDeterminism(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	if len(ds.DNS) < 100 {
		t.Fatalf("trace too small: %d DNS records", len(ds.DNS))
	}
	ref, err := buildStoreChunked(context.Background(), 1, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		// Call the chunked build directly, below its size floor.
		got, err := buildStoreChunked(context.Background(), workers, ds)
		if err != nil {
			t.Fatal(err)
		}
		checkStoresEqual(t, fmt.Sprintf("workers=%d", workers), got, ref)
	}
}

// checkStoresEqual fails unless two record stores hold the same
// records, answers and connections under the same numbering.
func checkStoresEqual(t *testing.T, label string, got, want *recordStore) {
	t.Helper()
	if !slices.Equal(got.addrs, want.addrs) {
		t.Fatalf("%s: %d addresses, want %d, or a different numbering", label, len(got.addrs), len(want.addrs))
	}
	if got.names.Len() != want.names.Len() {
		t.Fatalf("%s: %d names, want %d", label, got.names.Len(), want.names.Len())
	}
	for s := 0; s < want.names.Len(); s++ {
		if got.names.Name(trace.Sym(s)) != want.names.Name(trace.Sym(s)) {
			t.Fatalf("%s: name symbol %d = %q, want %q",
				label, s, got.names.Name(trace.Sym(s)), want.names.Name(trace.Sym(s)))
		}
	}
	if !slices.Equal(got.resolvers, want.resolvers) {
		t.Fatalf("%s: resolvers %+v, want %+v", label, got.resolvers, want.resolvers)
	}
	if !slices.Equal(got.dns, want.dns) || !slices.Equal(got.answers, want.answers) || !slices.Equal(got.conns, want.conns) {
		t.Fatalf("%s: %d/%d/%d records, answers, connections, want %d/%d/%d, or different values",
			label, len(got.dns), len(got.answers), len(got.conns), len(want.dns), len(want.answers), len(want.conns))
	}
}
