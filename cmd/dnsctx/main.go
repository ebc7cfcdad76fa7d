// Command dnsctx runs the paper's full analysis — DN-Hunter pairing, the
// blocking heuristic, the N/LC/P/SC/R classification, and every table and
// figure — over a pair of TSV logs (from tracegen or zeeklite), a
// directory of time-partitioned TSV logs, or a freshly generated
// synthetic window. Every input streams through one analysis path, so a
// memory budget, a shard file, or a checkpoint works with any of them
// (a checkpoint not together with a memory budget). TSV logs must be
// time-ordered, as tracegen and zeeklite write them: a DNS log by
// response time, a connection log by start time. A log out of order
// stops the run with an error. The generator's flags (-houses,
// -duration, -seed, -fault-*, -transport*) apply to -generate alone and
// are refused with any other input.
//
// Usage:
//
//	dnsctx -dns dns.log -conns conn.log
//	dnsctx -generate -houses 50 -duration 12h
//
// Traces bigger than RAM spill to disk past a memory budget:
//
//	dnsctx -dns dns.log -conns conn.log -memory-budget 256m
//	dnsctx -trace-dir captures/ -memory-budget 1g
//
// Multi-process map/reduce: each process collects a mergeable shard
// over its slice of the trace, then one process reduces them:
//
//	dnsctx -dns part1.dns.tsv -conns part1.conn.tsv -shard-out part1.shard
//	dnsctx -dns part2.dns.tsv -conns part2.conn.tsv -shard-out part2.shard
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
	"time"

	"dnscontext"
	"dnscontext/internal/core"
	"dnscontext/internal/netsim"
	"dnscontext/internal/obs"
	"dnscontext/internal/trace"
)

// generatorFlags are the flags that configure -generate and mean
// nothing for any other input.
var generatorFlags = map[string]bool{
	"houses": true, "duration": true, "seed": true,
	"fault-loss": true, "fault-jitter": true, "fault-outage": true, "fault-truncate": true, "fault-stale-hold": true,
	"transport": true, "transport-resumption": true,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnsctx: ")

	var (
		dnsIn    = flag.String("dns", "", "DNS transactions log (see -format); TSV must be in response-time order")
		connIn   = flag.String("conns", "", "connection summaries log (see -format); TSV must be in start-time order")
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

		quarantine  = flag.Bool("quarantine", false, "divert malformed TSV input lines to stderr instead of aborting (with -dns/-conns or -trace-dir)")
		quarMaxErrs = flag.Int("quarantine-max-errors", -1, "malformed lines tolerated before aborting; -1 = unlimited (with -quarantine)")
		quarMaxRate = flag.Float64("quarantine-max-rate", 0, "malformed-line fraction tolerated before aborting; 0 = no rate check (with -quarantine)")

		ckPath     = flag.String("checkpoint", "", "snapshot completed analysis shards to this file; removed on success (not with -memory-budget)")
		ckResume   = flag.Bool("resume", false, "resume from the -checkpoint file if it exists")
		ckInterval = flag.Int("checkpoint-interval", 0, "completed shards between snapshots; 0 = default (64)")

		traceDir  = flag.String("trace-dir", "", "directory of time-partitioned TSV trace files (*.dns.tsv / *.conn.tsv) to analyze")
		memBudget = flag.String("memory-budget", "", "resident-record budget before spilling to disk, e.g. 256m or 2g; empty = unlimited")
		spillDir  = flag.String("spill-dir", "", "directory for spill partitions; empty = fresh temp dir")
		shardOut  = flag.String("shard-out", "", "also write the mergeable analysis shard to this file")
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
	inputs := 0
	for _, given := range []bool{*dnsIn != "" || *connIn != "", *traceDir != "", *generate, *merge} {
		if given {
			inputs++
		}
	}
	if inputs != 1 {
		usageErr("pass one input: -dns AND -conns, -trace-dir, -generate, or -merge with shard files")
	}
	if (*dnsIn == "") != (*connIn == "") {
		usageErr("-dns and -conns go together")
	}
	if *merge {
		if flag.NArg() == 0 {
			usageErr("-merge requires at least one shard file argument")
		}
		if *ckPath != "" || *memBudget != "" || *spillDir != "" {
			usageErr("-merge reduces shard files without analyzing a trace; it takes no -checkpoint, -memory-budget, or -spill-dir")
		}
	} else if flag.NArg() > 0 {
		usageErr("unexpected arguments %q (shard files are only accepted with -merge)", flag.Args())
	}
	switch *format {
	case "tsv":
	case "json":
		if *dnsIn == "" {
			usageErr("-format json applies to -dns/-conns only")
		}
		if *quarantine {
			usageErr("-quarantine requires -format tsv")
		}
	default:
		usageErr("unknown -format %q (want tsv or json)", *format)
	}
	if !*generate {
		// A read trace already carries its houses, window, faults and
		// transport timing: a generator flag set with it is a mistake.
		flag.Visit(func(f *flag.Flag) {
			if generatorFlags[f.Name] {
				usageErr("-%s requires -generate (it shapes a synthesized trace, not a read one)", f.Name)
			}
		})
	}
	if _, err := dnscontext.ParseTransport(*transport); err != nil {
		usageErr("bad -transport: %v", err)
	}
	outages, err := netsim.ParseWindows(*faultOutage)
	if err != nil {
		usageErr("bad -fault-outage: %v", err)
	}
	if *ckResume && *ckPath == "" {
		usageErr("-resume requires -checkpoint (there is no snapshot file to resume from)")
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		usageErr("bad -memory-budget: %v", err)
	}
	if budget > 0 && *ckPath != "" {
		usageErr("-checkpoint cannot be combined with -memory-budget: a run that spills classifies its spill partitions and never snapshots")
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

	profiles := dnscontext.DefaultProfiles()
	policy := dnscontext.StrictPolicy()
	if *quarantine {
		policy = dnscontext.QuarantineBudget(*quarMaxErrs, *quarMaxRate)
	}
	var src dnscontext.Source
	switch {
	case *merge:
		// No trace: the shards were classified when they were collected.
	case *generate:
		cfg := dnscontext.DefaultGeneratorConfig()
		cfg.Houses = *houses
		cfg.Duration = *duration
		cfg.Seed = *seed
		cfg.Faults.Loss = *faultLoss
		cfg.Faults.ExtraJitter = *faultJitter
		cfg.Faults.LocalOutages = outages
		cfg.Faults.TruncateOver = *faultTruncate
		cfg.Faults.StaleHold = *faultStale
		cfg.Transport.Kind = *transport
		cfg.Transport.SessionResumption = *transportResume
		cfg.Metrics = reg
		ds, eco, err := dnscontext.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		src, profiles = dnscontext.NewDatasetSource(ds), eco.Profiles
	case *traceDir != "":
		if *quarantine {
			policy.Sink = func(q dnscontext.Quarantined) {
				log.Printf("quarantined %s:%d: %v", q.Path, q.Line, q.Err)
			}
			policy.Done = logQuarantineTally
		}
		src = dnscontext.NewDirSource(*traceDir, policy)
	case *format == "json":
		ds := &dnscontext.Dataset{}
		if ds.DNS, err = readFile(*dnsIn, trace.ReadDNSJSON); err != nil {
			log.Fatal(err)
		}
		if ds.Conns, err = readFile(*connIn, trace.ReadConnsJSON); err != nil {
			log.Fatal(err)
		}
		src = dnscontext.NewDatasetSource(ds)
	default:
		logs, err := openLogs(*dnsIn, *connIn, policy, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer logs.close()
		src = logs
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
	if *merge {
		a, err = runMerge(flag.Args(), *shardOut)
	} else {
		a, err = analyze(an, src, *shardOut)
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

// runMerge reduces shard files collected by separate dnsctx -shard-out
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

// analyze runs the analysis over src. With shardOut the map phase's
// mergeable shard is persisted before finalizing, so the same
// invocation both contributes to a multi-process merge and reports its
// own slice.
func analyze(an *dnscontext.Analyzer, src dnscontext.Source, shardOut string) (*dnscontext.Analysis, error) {
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

func readFile[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// logQuarantineTally prints an input file's quarantine summary, if it
// quarantined any line.
func logQuarantineTally(path string, st dnscontext.ScanStats) {
	if st.Quarantined > 0 {
		log.Printf("%s: quarantined %d of %d lines", path, st.Quarantined, st.Lines)
	}
}

// logSource is the ScannerSource over a -dns/-conns TSV pair, which it
// embeds for the analyzer's parallel ingest. It names the file in each
// quarantined line (file:line), in its quarantine summary and in a
// stream's error, and counts each stream's records and quarantined
// lines into the dnsctx_trace_* metrics.
type logSource struct {
	*dnscontext.ScannerSource
	dns, conns *logFile
	// cur is the file being scanned: the analyzer reads one stream at a
	// time, DNS first, so the one quarantine sink charges it.
	cur *logFile
}

// logFile is one input log and its metrics.
type logFile struct {
	*os.File
	recordsC, quarantinedC *obs.Counter
}

func openLogs(dnsPath, connPath string, policy dnscontext.ErrorPolicy, reg *dnscontext.MetricsRegistry) (*logSource, error) {
	dns, err := openLog(dnsPath, "dns", reg)
	if err != nil {
		return nil, err
	}
	conns, err := openLog(connPath, "conn", reg)
	if err != nil {
		dns.Close()
		return nil, err
	}
	s := &logSource{dns: dns, conns: conns}
	if policy.Quarantine {
		policy.Sink = func(q dnscontext.Quarantined) {
			s.cur.quarantinedC.Inc()
			log.Printf("quarantined %s:%d: %v", s.cur.Name(), q.Line, q.Err)
		}
		policy.Done = func(_ string, st dnscontext.ScanStats) { logQuarantineTally(s.cur.Name(), st) }
	}
	s.ScannerSource = dnscontext.NewScannerSource(dns, conns, policy)
	return s, nil
}

func openLog(path, stream string, reg *dnscontext.MetricsRegistry) (*logFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &logFile{
		File: f,
		recordsC: reg.CounterVec("dnsctx_trace_records_total",
			"Records yielded by the trace scanners, by stream.", "stream").With(stream),
		quarantinedC: reg.CounterVec("dnsctx_trace_quarantined_total",
			"Malformed lines diverted to quarantine, by stream.", "stream").With(stream),
	}, nil
}

func (s *logSource) close() {
	s.dns.Close()
	s.conns.Close()
}

// StreamDNS implements dnscontext.Source.
func (s *logSource) StreamDNS(yield func(*dnscontext.DNSRecord) error) error {
	return scanLog(s, s.dns, s.ScannerSource.StreamDNS, yield)
}

// StreamConns implements dnscontext.Source.
func (s *logSource) StreamConns(yield func(*dnscontext.ConnRecord) error) error {
	return scanLog(s, s.conns, s.ScannerSource.StreamConns, yield)
}

// scanLog runs one stream over f, counting its records, and prefixes
// the error that stopped it, if any, with the file.
func scanLog[R any](s *logSource, f *logFile, stream func(func(*R) error) error, yield func(*R) error) error {
	s.cur = f
	err := stream(func(r *R) error {
		f.recordsC.Inc()
		return yield(r)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", f.Name(), err)
	}
	return nil
}
