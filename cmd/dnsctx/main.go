// Command dnsctx runs the paper's full analysis — DN-Hunter pairing, the
// blocking heuristic, the N/LC/P/SC/R classification, and every table and
// figure — over a pair of TSV logs (from tracegen or zeeklite) or over a
// freshly generated synthetic window.
//
// Usage:
//
//	dnsctx -dns dns.log -conns conn.log
//	dnsctx -generate -houses 50 -duration 12h
//
// Out-of-core streaming over traces bigger than RAM:
//
//	dnsctx -stream -dns dns.log -conns conn.log -memory-budget 256m
//	dnsctx -stream -trace-dir captures/ -memory-budget 1g
//
// Multi-process map/reduce: each process collects a mergeable shard
// over its slice of the trace, then one process reduces them:
//
//	dnsctx -stream -dns part1.dns.tsv -conns part1.conn.tsv -shard-out part1.shard
//	dnsctx -stream -dns part2.dns.tsv -conns part2.conn.tsv -shard-out part2.shard
//	dnsctx -merge part1.shard part2.shard
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dnscontext"
	"dnscontext/internal/core"
	"dnscontext/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnsctx: ")

	var (
		dnsIn    = flag.String("dns", "", "DNS transactions TSV input")
		connIn   = flag.String("conns", "", "connection summaries TSV input")
		generate = flag.Bool("generate", false, "synthesize a window instead of reading logs")
		houses   = flag.Int("houses", 20, "houses (with -generate)")
		duration = flag.Duration("duration", 6*time.Hour, "window (with -generate)")
		seed     = flag.Uint64("seed", 1, "seed (with -generate)")

		faultLoss     = flag.Float64("fault-loss", 0, "per-transmission packet-loss probability (with -generate)")
		faultJitter   = flag.Duration("fault-jitter", 0, "mean extra per-delivery jitter (with -generate)")
		faultOutage   = flag.String("fault-outage", "", "local-resolver outage windows as start:dur[,start:dur...], e.g. 1h:10m (with -generate)")
		faultTruncate = flag.Int("fault-truncate", 0, "answers-per-response UDP truncation threshold, 0 = off (with -generate)")
		faultStale    = flag.Duration("fault-stale-hold", 0, "serve-stale window for phone/laptop stubs under resolver failure (with -generate)")

		transport       = flag.String("transport", "", "resolver wire transport for generation: udp, tcp, dot, or doh; empty = udp (with -generate)")
		transportResume = flag.Bool("transport-resumption", false, "enable TLS session resumption for dot/doh (with -generate -transport)")
		whatifTransport = flag.Bool("whatif-transport", false, "append the Do53/DoTCP/DoT/DoH transport delta table to the report")

		block    = flag.Duration("block-threshold", 100*time.Millisecond, "blocked-connection gap threshold")
		scrMin   = flag.Int("scr-min-samples", 1000, "min lookups for a per-resolver SC/R threshold")
		scrDef   = flag.Duration("scr-default", 5*time.Millisecond, "default SC/R duration threshold")
		randPair = flag.Bool("random-pairing", false, "pair with a random fresh candidate (robustness check)")
		format   = flag.String("format", "tsv", "log input format: tsv or json")
		figures  = flag.String("figures", "", "also export per-figure CSV data into this directory")
		perHouse = flag.Bool("per-house", false, "append a per-house breakdown to the report")

		quarantine  = flag.Bool("quarantine", false, "divert malformed TSV input lines to stderr instead of aborting (with -dns/-conns)")
		quarMaxErrs = flag.Int("quarantine-max-errors", -1, "malformed lines tolerated before aborting; -1 = unlimited (with -quarantine)")
		quarMaxRate = flag.Float64("quarantine-max-rate", 0, "malformed-line fraction tolerated before aborting; 0 = no rate check (with -quarantine)")

		ckPath     = flag.String("checkpoint", "", "snapshot completed analysis shards to this file; removed on success")
		ckResume   = flag.Bool("resume", false, "resume from the -checkpoint file if it exists")
		ckInterval = flag.Int("checkpoint-interval", 0, "completed shards between snapshots; 0 = default (64)")

		stream    = flag.Bool("stream", false, "stream the trace through the out-of-core analyzer instead of loading it whole")
		traceDir  = flag.String("trace-dir", "", "directory of time-partitioned trace files (*.dns.tsv / *.conn.tsv) to stream (with -stream)")
		memBudget = flag.String("memory-budget", "", "resident-record budget before spilling to disk, e.g. 256m or 2g; empty = unlimited (with -stream)")
		spillDir  = flag.String("spill-dir", "", "directory for spill partitions; empty = fresh temp dir (with -stream)")
		shardOut  = flag.String("shard-out", "", "also write the mergeable analysis shard to this file (with -stream or -merge)")
		merge     = flag.Bool("merge", false, "merge shard files (the remaining arguments) and report the reduced analysis")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address (e.g. :9090)")
		withPprof    = flag.Bool("pprof", false, "also mount /debug/pprof on the metrics server")
		hold         = flag.Duration("hold", 0, "keep the metrics server up this long after the report (with -metrics-addr)")
		timeline     = flag.Bool("timeline", false, "print the analysis phase timeline after the report")
		timelineJSON = flag.String("timeline-json", "", "write the analysis timeline as JSON to this file")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Flag-combination validation, before any work: misuse fails fast
	// with a usage error instead of surfacing mid-run.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dnsctx: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if !*generate {
		if *transport != "" {
			usageErr("-transport requires -generate (read traces already carry their transport's timing)")
		}
		if *transportResume {
			usageErr("-transport-resumption requires -generate")
		}
	}
	if _, err := dnscontext.ParseTransport(*transport); err != nil {
		usageErr("bad -transport: %v", err)
	}
	if *ckResume && *ckPath == "" {
		usageErr("-resume requires -checkpoint (there is no snapshot file to resume from)")
	}
	if *stream && (*ckPath != "" || *ckResume) {
		usageErr("-stream cannot be combined with -checkpoint/-resume: the out-of-core path spills partial state to its spill dir instead of shard snapshots")
	}
	if *merge {
		if *stream || *generate || *dnsIn != "" || *connIn != "" || *traceDir != "" {
			usageErr("-merge reads only shard files (as arguments); it cannot be combined with -stream, -generate, -dns/-conns, or -trace-dir")
		}
		if flag.NArg() == 0 {
			usageErr("-merge requires at least one shard file argument")
		}
	} else if flag.NArg() > 0 {
		usageErr("unexpected arguments %q (shard files are only accepted with -merge)", flag.Args())
	}
	if !*stream {
		if *traceDir != "" {
			usageErr("-trace-dir requires -stream")
		}
		if *memBudget != "" {
			usageErr("-memory-budget requires -stream (the in-memory path always holds the whole dataset)")
		}
		if *spillDir != "" {
			usageErr("-spill-dir requires -stream")
		}
		if *shardOut != "" && !*merge {
			usageErr("-shard-out requires -stream or -merge")
		}
	} else {
		if *generate {
			usageErr("-stream reads trace logs; it cannot be combined with -generate")
		}
		if *traceDir == "" && (*dnsIn == "" || *connIn == "") {
			usageErr("-stream requires -dns AND -conns, or -trace-dir")
		}
		if *traceDir != "" && (*dnsIn != "" || *connIn != "") {
			usageErr("pass either -trace-dir or -dns/-conns with -stream, not both")
		}
		if *format != "tsv" {
			usageErr("-stream supports -format tsv only")
		}
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		usageErr("bad -memory-budget: %v", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var reg *dnscontext.MetricsRegistry
	var srv *dnscontext.MetricsServer
	if *metricsAddr != "" {
		reg = dnscontext.NewMetricsRegistry()
		var err error
		srv, err = dnscontext.ServeMetrics(*metricsAddr, reg, *withPprof)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics at http://%s/metrics", srv.Addr())
	}

	var ds *dnscontext.Dataset
	profiles := dnscontext.DefaultProfiles()
	switch {
	case *merge, *stream:
		// No resident dataset: shards are read, or the source streams,
		// after the options are assembled below.
	case *generate:
		cfg := dnscontext.DefaultGeneratorConfig()
		cfg.Houses = *houses
		cfg.Duration = *duration
		cfg.Seed = *seed
		cfg.Faults.Loss = *faultLoss
		cfg.Faults.ExtraJitter = *faultJitter
		cfg.Faults.TruncateOver = *faultTruncate
		cfg.Faults.StaleHold = *faultStale
		cfg.Transport.Kind = *transport
		cfg.Transport.SessionResumption = *transportResume
		cfg.Metrics = reg
		if *faultOutage != "" {
			windows, err := parseOutages(*faultOutage)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Faults.LocalOutages = windows
		}
		var err error
		var eco *dnscontext.Ecosystem
		ds, eco, err = dnscontext.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		profiles = eco.Profiles
	case *dnsIn != "" && *connIn != "":
		readD, readC := dnscontext.ReadDNS, dnscontext.ReadConns
		switch *format {
		case "tsv":
		case "json":
			if *quarantine {
				log.Fatal("-quarantine requires -format tsv")
			}
			readD, readC = trace.ReadDNSJSON, trace.ReadConnsJSON
		default:
			log.Fatalf("unknown -format %q (want tsv or json)", *format)
		}
		ds = &dnscontext.Dataset{}
		var err error
		if *quarantine {
			policy := dnscontext.QuarantineBudget(*quarMaxErrs, *quarMaxRate)
			if ds.DNS, err = scanDNS(*dnsIn, policy, reg); err != nil {
				log.Fatal(err)
			}
			if ds.Conns, err = scanConns(*connIn, policy, reg); err != nil {
				log.Fatal(err)
			}
		} else {
			if ds.DNS, err = readFile(*dnsIn, readD); err != nil {
				log.Fatal(err)
			}
			if ds.Conns, err = readFile(*connIn, readC); err != nil {
				log.Fatal(err)
			}
		}
	default:
		log.Fatal("pass -dns AND -conns, -generate, -stream, or -merge")
	}

	opts := dnscontext.DefaultOptions()
	opts.BlockThreshold = *block
	opts.SCRMinSamples = *scrMin
	opts.DefaultSCThreshold = *scrDef
	if *randPair {
		opts.Pairing = dnscontext.PairRandom
	}
	opts.Metrics = reg
	var tr *dnscontext.Tracer
	if *timeline || *timelineJSON != "" {
		tr = dnscontext.NewTracer()
		opts.Trace = tr
	}
	if *ckPath != "" {
		opts.Checkpoint = &dnscontext.AnalysisCheckpoint{
			Path: *ckPath, Interval: *ckInterval, Resume: *ckResume,
		}
	}
	opts.MemoryBudget = budget
	opts.SpillDir = *spillDir
	an := dnscontext.NewAnalyzer(dnscontext.WithOptions(opts))

	var a *dnscontext.Analysis
	switch {
	case *merge:
		a, err = runMerge(flag.Args(), *shardOut)
	case *stream:
		a, err = runStream(an, *traceDir, *dnsIn, *connIn, *shardOut,
			*quarantine, *quarMaxErrs, *quarMaxRate)
	default:
		a, err = an.AnalyzeContext(context.Background(), ds)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *ckPath != "" {
		// The run completed, so the snapshot has served its purpose; a
		// missing file just means the run never reached a snapshot point.
		if err := os.Remove(*ckPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			log.Printf("removing checkpoint %s: %v", *ckPath, err)
		}
	}
	if err := a.Report(os.Stdout, profiles); err != nil {
		log.Fatal(err)
	}
	if tr != nil {
		tl := tr.Timeline()
		if *timeline {
			fmt.Println()
			if err := tl.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		if *timelineJSON != "" {
			f, err := os.Create(*timelineJSON)
			if err != nil {
				log.Fatal(err)
			}
			if err := tl.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("timeline written to %s", *timelineJSON)
		}
	}
	if a.Summary() && (*perHouse || *figures != "" || *whatifTransport) {
		log.Printf("note: -per-house, -figures, and -whatif-transport need the resident dataset; skipped for the summary-grade streamed result")
		*perHouse, *figures, *whatifTransport = false, "", false
	}
	if *whatifTransport {
		rows := a.TransportWhatIf(profiles, dnscontext.DefaultTransportScenarios())
		fmt.Println()
		if err := dnscontext.WriteTransportTable(os.Stdout, rows, a.Opts.BlockThreshold); err != nil {
			log.Fatal(err)
		}
	}
	if *perHouse {
		houses := a.PerHouse(profiles)
		fmt.Printf("\n--- Per-house breakdown (%d houses, %.1f%% only-local; paper: ~16%%) ---\n",
			len(houses), 100*core.OnlyLocalFraction(houses))
		fmt.Printf("%-6s %8s %8s %9s %9s\n", "house", "conns", "dns", "blocked%", "onlyLocal")
		for _, h := range houses {
			fmt.Printf("%-6d %8d %8d %8.1f%% %9v\n",
				h.House, h.Conns, h.DNS, 100*h.BlockedFraction(), h.UsesOnlyLocal())
		}
	}
	if *figures != "" {
		if err := a.ExportFigureData(*figures, 200, profiles); err != nil {
			log.Fatal(err)
		}
		log.Printf("figure data written to %s", *figures)
	}
	if srv != nil && *hold > 0 {
		log.Printf("holding metrics server at http://%s/metrics for %v", srv.Addr(), *hold)
		time.Sleep(*hold)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// runMerge reduces shard files collected by separate dnsctx -stream
// processes: read, merge, optionally re-serialize the merged shard, and
// finalize to the reported analysis.
func runMerge(paths []string, shardOut string) (*dnscontext.Analysis, error) {
	shards := make([]*dnscontext.AnalysisShard, len(paths))
	for i, path := range paths {
		s, err := dnscontext.ReadAnalysisShard(path)
		if err != nil {
			return nil, err
		}
		shards[i] = s
		log.Printf("loaded %s: %d clients, %d conns, %d dns", path, s.Clients(), s.ConnTotal(), s.DNSTotal())
	}
	merged, err := dnscontext.MergeShards(shards...)
	if err != nil {
		return nil, err
	}
	if shardOut != "" {
		if err := dnscontext.WriteAnalysisShard(shardOut, merged); err != nil {
			return nil, err
		}
		log.Printf("merged shard written to %s", shardOut)
	}
	return merged.Finalize(), nil
}

// runStream analyzes the trace out of core. With shardOut the map
// phase's mergeable shard is persisted before finalizing, so the same
// invocation both contributes to a multi-process merge and reports its
// own slice.
func runStream(an *dnscontext.Analyzer, traceDir, dnsIn, connIn, shardOut string,
	quarantine bool, quarMaxErrs int, quarMaxRate float64) (*dnscontext.Analysis, error) {
	policy := dnscontext.StrictPolicy()
	if quarantine {
		policy = dnscontext.QuarantineBudget(quarMaxErrs, quarMaxRate)
		policy.Sink = func(q dnscontext.Quarantined) {
			log.Printf("quarantined line %d: %v", q.Line, q.Err)
		}
	}
	var src dnscontext.Source
	if traceDir != "" {
		src = dnscontext.NewDirSource(traceDir, policy)
	} else {
		df, err := os.Open(dnsIn)
		if err != nil {
			return nil, err
		}
		defer df.Close()
		cf, err := os.Open(connIn)
		if err != nil {
			return nil, err
		}
		defer cf.Close()
		src = dnscontext.NewScannerSource(df, cf, policy)
	}
	if shardOut == "" {
		return an.AnalyzeSource(context.Background(), src)
	}
	shard, err := an.CollectShard(context.Background(), src)
	if err != nil {
		return nil, err
	}
	if err := dnscontext.WriteAnalysisShard(shardOut, shard); err != nil {
		return nil, err
	}
	log.Printf("analysis shard written to %s (%d clients, %d conns)", shardOut, shard.Clients(), shard.ConnTotal())
	return shard.Finalize(), nil
}

// parseBytes parses a byte count with an optional k/m/g suffix
// (binary multiples); empty means 0 (unlimited). The count must be a
// whole decimal number with nothing after the suffix, and the product
// must fit in an int64.
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num, mult := s, int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		num, mult = s[:len(s)-1], 1<<10
	case 'm', 'M':
		num, mult = s[:len(s)-1], 1<<20
	case 'g', 'G':
		num, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("want a nonnegative byte count like 512k, 256m, or 2g, got %q", s)
	}
	return n * mult, nil
}

// parseOutages parses "start:dur[,start:dur...]" into outage windows,
// e.g. "1h:10m,3h30m:5m".
func parseOutages(s string) ([]dnscontext.OutageWindow, error) {
	var out []dnscontext.OutageWindow
	for _, part := range strings.Split(s, ",") {
		startStr, durStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad -fault-outage entry %q, want start:dur", part)
		}
		start, err := time.ParseDuration(startStr)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-outage start in %q: %v", part, err)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-outage duration in %q: %v", part, err)
		}
		out = append(out, dnscontext.OutageWindow{Start: start, End: start + dur})
	}
	return out, nil
}

func readFile[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// stderrSink logs each quarantined line with its source file, line
// number, and cause.
func stderrSink(path string) func(dnscontext.Quarantined) {
	return func(q dnscontext.Quarantined) {
		log.Printf("quarantined %s:%d: %v", path, q.Line, q.Err)
	}
}

// finishScan reports the scan outcome: the terminal error if the scan
// aborted (budget trip or read error), otherwise a summary of what was
// quarantined.
func finishScan(path string, err error, st dnscontext.ScanStats) error {
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if st.Quarantined > 0 {
		log.Printf("%s: quarantined %d of %d lines", path, st.Quarantined, st.Lines)
	}
	return nil
}

// scanDNS streams path through a quarantining DNSScanner, logging every
// diverted line to stderr.
func scanDNS(path string, policy dnscontext.ErrorPolicy, reg *dnscontext.MetricsRegistry) ([]dnscontext.DNSRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	policy.Sink = stderrSink(path)
	sc := dnscontext.NewDNSScanner(f, policy)
	sc.Observe(reg)
	var out []dnscontext.DNSRecord
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	return out, finishScan(path, sc.Err(), sc.Stats())
}

// scanConns is scanDNS for connection summaries.
func scanConns(path string, policy dnscontext.ErrorPolicy, reg *dnscontext.MetricsRegistry) ([]dnscontext.ConnRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	policy.Sink = stderrSink(path)
	sc := dnscontext.NewConnScanner(f, policy)
	sc.Observe(reg)
	var out []dnscontext.ConnRecord
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	return out, finishScan(path, sc.Err(), sc.Stats())
}
