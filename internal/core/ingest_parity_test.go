package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// TestParallelIngestGoldenParity is the tentpole determinism gate for
// the chunked-ingest + prep-overlap path: AnalyzeSource over a TSV
// ScannerSource must produce bit-identical golden hashes and Digest at
// every Workers count, under both pairing policies. Ingest parses on
// the Workers pool width, so Workers 1 runs the serial scanner and 2
// and 8 the chunked parallel scan. The reference is one serial
// in-memory analysis of the same parsed records (the TSV format rounds
// timestamps to microseconds, so the reference must come from the
// roundtripped dataset, not the generator's).
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
		ref := analyzeCopy(&trace.Dataset{DNS: parsedDNS, Conns: parsedConns}, opts)
		wantReport, wantPaired, wantCheckpoint := hashAnalysis(t, ref, eco.Profiles)

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
			report, paired, checkpoint := hashAnalysis(t, a, eco.Profiles)
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
// symbol remap directly: buildSidecars must hand back the same tables,
// numbering, and fused resolver stats at every worker count, including
// widths that force many small chunks.
func TestParallelSymbolRemapDeterminism(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	if len(ds.DNS) < 100 {
		t.Fatalf("trace too small: %d DNS records", len(ds.DNS))
	}
	ref, err := buildSidecars(context.Background(), 1, ds.DNS)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		// Drop the size floor out of the way by calling the parallel
		// build directly.
		got := &sidecars{
			names:  trace.NewSymbolTable(),
			qsym:   make([]trace.Sym, len(ds.DNS)),
			rsym:   make([]int32, len(ds.DNS)),
			expiry: make([]time.Duration, len(ds.DNS)),
		}
		if err := got.buildParallel(context.Background(), workers, ds.DNS); err != nil {
			t.Fatal(err)
		}
		if got.names.Len() != ref.names.Len() {
			t.Fatalf("workers=%d: %d names, want %d", workers, got.names.Len(), ref.names.Len())
		}
		for s := 0; s < ref.names.Len(); s++ {
			if got.names.Name(trace.Sym(s)) != ref.names.Name(trace.Sym(s)) {
				t.Fatalf("workers=%d: symbol %d = %q, want %q",
					workers, s, got.names.Name(trace.Sym(s)), ref.names.Name(trace.Sym(s)))
			}
		}
		for i := range ref.qsym {
			if got.qsym[i] != ref.qsym[i] || got.rsym[i] != ref.rsym[i] || got.expiry[i] != ref.expiry[i] {
				t.Fatalf("workers=%d: record %d sidecar (%d %d %v), want (%d %d %v)",
					workers, i, got.qsym[i], got.rsym[i], got.expiry[i],
					ref.qsym[i], ref.rsym[i], ref.expiry[i])
			}
		}
		if len(got.resolvers) != len(ref.resolvers) {
			t.Fatalf("workers=%d: %d resolvers, want %d", workers, len(got.resolvers), len(ref.resolvers))
		}
		for rs := range ref.resolvers {
			if got.resolvers[rs] != ref.resolvers[rs] {
				t.Fatalf("workers=%d: resolver %d (%v n=%d min=%v), want (%v n=%d min=%v)",
					workers, rs, got.resolvers[rs].addr, got.resolvers[rs].lookups, got.resolvers[rs].minDur,
					ref.resolvers[rs].addr, ref.resolvers[rs].lookups, ref.resolvers[rs].minDur)
			}
		}
	}
}
