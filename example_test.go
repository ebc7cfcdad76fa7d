package dnscontext_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnscontext"
)

// ExampleAnalyzer_Analyze shows the core loop: synthesize a window,
// classify every connection, and read Table 2.
func ExampleAnalyzer_Analyze() {
	cfg := dnscontext.SmallGeneratorConfig(7)
	cfg.Houses = 4
	cfg.Duration = time.Hour
	cfg.Warmup = time.Hour

	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)

	total := a.Fraction(dnscontext.ClassN) + a.Fraction(dnscontext.ClassLC) +
		a.Fraction(dnscontext.ClassP) + a.Fraction(dnscontext.ClassSC) +
		a.Fraction(dnscontext.ClassR)
	fmt.Printf("classes sum to %.0f\n", total)
	fmt.Printf("every connection classified: %v\n", len(a.Paired) == len(ds.Conns))
	// Output:
	// classes sum to 1
	// every connection classified: true
}

// ExampleAnalysis_CompareRefreshPolicies explores the paper's §8 open
// question: hit rate versus refresh cost between the two Table 3
// extremes.
func ExampleAnalysis_CompareRefreshPolicies() {
	cfg := dnscontext.SmallGeneratorConfig(7)
	cfg.Houses = 4
	cfg.Duration = time.Hour
	cfg.Warmup = time.Hour
	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)

	rows := a.CompareRefreshPolicies(10*time.Second,
		dnscontext.PolicyIdleBounded(30*time.Minute))
	std := rows[0].Result
	mid := rows[1].Result
	all := rows[2].Result
	fmt.Printf("hit rates ordered: %v\n",
		std.HitRate <= mid.HitRate+1e-9 && mid.HitRate <= all.HitRate+1e-9)
	fmt.Printf("costs ordered: %v\n",
		std.Lookups <= mid.Lookups && mid.Lookups <= all.Lookups)
	// Output:
	// hit rates ordered: true
	// costs ordered: true
}

// ExampleNewMonitor demonstrates the packet path: render a dataset as
// wire frames and reconstruct it with the zeeklite monitor.
func ExampleNewMonitor() {
	cfg := dnscontext.SmallGeneratorConfig(7)
	cfg.Houses = 3
	cfg.Duration = 30 * time.Minute
	cfg.Warmup = 30 * time.Minute
	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	m := dnscontext.NewMonitor(dnscontext.DefaultMonitorOptions())
	err = dnscontext.Synthesize(ds, dnscontext.SynthOptions{},
		func(ts time.Duration, frame []byte) error {
			m.FeedFrame(ts, frame)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	got := m.Flush()
	fmt.Printf("DNS reconstructed: %v\n", len(got.DNS) == len(ds.DNS))
	fmt.Printf("conns reconstructed: %v\n", len(got.Conns) == len(ds.Conns))
	// Output:
	// DNS reconstructed: true
	// conns reconstructed: true
}

// ExampleAnalyzer_AnalyzeSource analyzes a trace from a streaming
// source under a memory budget far smaller than the trace: ingestion
// spills to disk and classification runs one partition at a time, yet
// the result is bit-identical (same digest) to the in-memory pipeline.
func ExampleAnalyzer_AnalyzeSource() {
	cfg := dnscontext.SmallGeneratorConfig(7)
	cfg.Houses = 4
	cfg.Duration = time.Hour
	cfg.Warmup = time.Hour
	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Render the dataset as the TSV files a capture pipeline produces.
	// The reference analysis reads the same files back, so both paths
	// see the serialized trace (TSV timestamps are microsecond-grained).
	var dnsTSV, connTSV bytes.Buffer
	if err := dnscontext.WriteDNS(&dnsTSV, ds.DNS); err != nil {
		log.Fatal(err)
	}
	if err := dnscontext.WriteConns(&connTSV, ds.Conns); err != nil {
		log.Fatal(err)
	}
	refDNS, err := dnscontext.ReadDNS(bytes.NewReader(dnsTSV.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	refConns, err := dnscontext.ReadConns(bytes.NewReader(connTSV.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	ref := dnscontext.NewAnalyzer().Analyze(&dnscontext.Dataset{DNS: refDNS, Conns: refConns})

	src := dnscontext.NewScannerSource(&dnsTSV, &connTSV, dnscontext.StrictPolicy())

	an := dnscontext.NewAnalyzer(dnscontext.WithMemoryBudget(64 << 10))
	a, err := an.AnalyzeSource(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("summary-grade result: %v\n", a.Summary())
	fmt.Printf("digest matches in-memory: %v\n", a.Digest() == ref.Digest())
	// Output:
	// summary-grade result: true
	// digest matches in-memory: true
}

// ExampleMergeShards reduces shards collected over client-disjoint
// slices of a trace — the multi-process deployment, where each dnsctx
// -stream process covers some clients — into the same analysis one
// in-memory run over the whole trace produces.
func ExampleMergeShards() {
	cfg := dnscontext.SmallGeneratorConfig(7)
	cfg.Houses = 4
	cfg.Duration = time.Hour
	cfg.Warmup = time.Hour
	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	an := dnscontext.NewAnalyzer()
	ref := an.Analyze(ds)

	// Split by client: a client's records must not straddle collectors.
	var slices [2]dnscontext.Dataset
	side := func(a netip.Addr) int { b := a.As16(); return int(b[15]) % 2 }
	for _, d := range ds.DNS {
		s := side(d.Client)
		slices[s].DNS = append(slices[s].DNS, d)
	}
	for _, c := range ds.Conns {
		s := side(c.Orig)
		slices[s].Conns = append(slices[s].Conns, c)
	}

	var shards []*dnscontext.AnalysisShard
	for i := range slices {
		sh, err := an.CollectShard(context.Background(), dnscontext.NewDatasetSource(&slices[i]))
		if err != nil {
			log.Fatal(err)
		}
		shards = append(shards, sh)
	}
	merged, err := dnscontext.MergeShards(shards...)
	if err != nil {
		log.Fatal(err)
	}
	a := merged.Finalize()
	fmt.Printf("clients covered: %v\n", merged.Clients() > 0)
	fmt.Printf("merged digest matches in-memory: %v\n", a.Digest() == ref.Digest())
	// Output:
	// clients covered: true
	// merged digest matches in-memory: true
}
