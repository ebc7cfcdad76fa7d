// Command dnsscan is the ZDNS-class bulk lookup engine: it resolves
// millions of names per run against either the simulated resolver
// hierarchy (deterministic under a seed) or a live dnsserver instance
// over real UDP/TCP sockets, emitting one JSONL result per query and an
// end-of-run summary (qps, outcome breakdown, latency percentiles).
//
// Usage:
//
//	dnsscan -n 1000000 > results.jsonl                  # simulated, synthetic feed
//	dnsscan -names list.txt -concurrency 8              # simulated, file feed
//	dnsscan -backend udp -server 127.0.0.1:5355 -names -   # live scan, names on stdin
//	dnsscan -backend udp -selfserve -n 200000           # live scan against an in-process server
//
// The simulated backend is deterministic: the same -seed, feed, -shards,
// and -sim-qps produce a byte-identical JSONL stream at any
// -concurrency (make scan gates this). The live backend is a real load
// generator; order and timing are whatever the network did.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"dnscontext/internal/bulk"
	"dnscontext/internal/chaos"
	"dnscontext/internal/dnsserver"
	"dnscontext/internal/dnswire"
	"dnscontext/internal/netsim"
	"dnscontext/internal/obs"
	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnsscan: ")

	var (
		backend  = flag.String("backend", "sim", "lookup backend: sim (simulated hierarchy), udp, or tcp (live dnsserver)")
		names    = flag.String("names", "", "name feed file, one name [type] per line; \"-\" = stdin; empty = synthetic feed")
		n        = flag.Int("n", 100000, "synthetic feed size (with no -names)")
		qtype    = flag.String("type", "A", "default query type for the feed")
		seed     = flag.Uint64("seed", 1, "seed for the namespace, shard RNGs, and synthetic feed")
		missRate = flag.Float64("miss-rate", 0.01, "synthetic feed fraction of nonexistent names (NXDOMAIN exercise)")

		concurrency = flag.Int("concurrency", 0, "parallelism: workers over shards (sim) / in-flight queries (live); 0 = default")
		shards      = flag.Int("shards", 64, "independent resolver instances on the sim path (part of the experiment definition)")
		simQPS      = flag.Float64("sim-qps", 50000, "virtual query arrival rate on the sim path")
		platform    = flag.String("platform", "local", "sim resolver platform: local, google, opendns, cloudflare")
		zoneNames   = flag.Int("zone-names", 0, "namespace size; 0 = default (20000)")
		noCoalesce  = flag.Bool("no-coalesce", false, "disable in-flight query deduplication")

		server     = flag.String("server", "", "live server address (with -backend udp/tcp)")
		servers    = flag.String("servers", "", "comma-separated live upstreams for multi-upstream failover (udp backend)")
		selfserve  = flag.Bool("selfserve", false, "start an in-process dnsserver on 127.0.0.1:0 and scan against it")
		sockets    = flag.Int("sockets", 8, "UDP sockets to shard the live client across")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-attempt timeout on the live path")
		retries    = flag.Int("retries", 2, "additional attempts on the live path")
		backoff    = flag.Float64("backoff", 1.5, "per-retry timeout multiplier on the live path")
		maxTimeout = flag.Duration("max-timeout", 0, "cap on any attempt's timeout (and the adaptive ceiling); 0 = uncapped")

		adaptive   = flag.Bool("adaptive-timeout", false, "RFC 6298 adaptive per-attempt timeouts (SRTT/RTTVAR per upstream; udp backend)")
		hedge      = flag.Bool("hedge", false, "send a hedged second request after the latency horizon (udp backend)")
		hedgeAfter = flag.Duration("hedge-after", 0, "fixed hedge delay; 0 derives it from the RTT estimator")
		breaker    = flag.Bool("breaker", false, "per-upstream circuit breaker (closed/open/half-open; udp backend)")

		ckptPath     = flag.String("checkpoint", "", "checkpoint file: persist scan progress for resume (live path, requires -o FILE)")
		ckptInterval = flag.Duration("checkpoint-interval", 2*time.Second, "how often to persist scan progress")
		resume       = flag.Bool("resume", false, "resume from -checkpoint: truncate output to the recorded offset and skip completed indices")

		chaosOn        = flag.Bool("chaos", false, "route the scan through an in-process fault proxy per upstream")
		chaosLoss      = flag.Float64("chaos-loss", 0, "fault proxy datagram loss probability")
		chaosDelay     = flag.Duration("chaos-delay", 0, "fault proxy fixed delay per delivery")
		chaosJitter    = flag.Duration("chaos-jitter", 0, "fault proxy mean exponential extra jitter")
		chaosReorder   = flag.Float64("chaos-reorder", 0, "fault proxy reorder probability (extra hold-back)")
		chaosDup       = flag.Float64("chaos-dup", 0, "fault proxy duplication probability")
		chaosCorrupt   = flag.Float64("chaos-corrupt", 0, "fault proxy byte-corruption probability")
		chaosReset     = flag.Float64("chaos-reset", 0, "fault proxy per-chunk TCP mid-stream reset probability (tcp backend)")
		chaosBlackhole = flag.String("chaos-blackhole", "", "fault proxy blackhole windows, start:dur[,start:dur...] relative to scan start")
		chaosSeed      = flag.Uint64("chaos-seed", 1, "fault proxy RNG seed (same seed, same per-datagram fates)")

		out      = flag.String("o", "-", "JSONL output file; \"-\" = stdout")
		quiet    = flag.Bool("quiet", false, "suppress the end-of-run summary on stderr")
		skipMax  = flag.Int("skip-max", -1, "feed lines that may be skipped before aborting; -1 = unlimited")
		skipRate = flag.Float64("skip-rate", 0, "abort when the skipped-line rate exceeds this fraction; 0 = no rate check")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address during the run")
		withPprof   = flag.Bool("pprof", false, "also mount /debug/pprof on the metrics server")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dnsscan: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dnsscan: "+format+"\n", args...)
		os.Exit(2)
	}
	if *backend != "sim" && *backend != "udp" && *backend != "tcp" {
		usage("-backend must be sim, udp, or tcp (got %q)", *backend)
	}
	if *backend == "sim" && (*server != "" || *servers != "" || *selfserve) {
		usage("-server/-servers/-selfserve require -backend udp or tcp")
	}
	if (*backend == "udp" || *backend == "tcp") && *server == "" && *servers == "" && !*selfserve {
		usage("-backend %s needs -server, -servers, or -selfserve", *backend)
	}
	if (*server != "" || *servers != "") && *selfserve {
		usage("-server/-servers and -selfserve are mutually exclusive")
	}
	if *backend != "udp" && (*servers != "" || *adaptive || *hedge || *breaker) {
		usage("-servers/-adaptive-timeout/-hedge/-breaker are client-pool features: -backend udp only")
	}
	if *ckptPath != "" && *backend == "sim" {
		usage("-checkpoint applies to the live path (sim runs re-run deterministically)")
	}
	if *ckptPath != "" && *out == "-" {
		usage("-checkpoint needs a real output file (-o FILE), not stdout")
	}
	if *resume && *ckptPath == "" {
		usage("-resume needs -checkpoint")
	}
	blackholes, err := netsim.ParseWindows(*chaosBlackhole)
	if err != nil {
		usage("bad -chaos-blackhole: %v", err)
	}
	defType, ok := parseType(*qtype)
	if !ok {
		usage("unknown -type %q", *qtype)
	}
	platID, ok := parsePlatform(*platform)
	if !ok {
		usage("unknown -platform %q", *platform)
	}

	// Output and metrics plumbing. A resumed run must keep the prior
	// output: RunLive truncates it back to the checkpointed offset
	// itself, discarding only the torn tail (or to zero when no
	// checkpoint exists and the run is fresh).
	output := os.Stdout
	if *out != "-" {
		mode := os.O_RDWR | os.O_CREATE | os.O_TRUNC
		if *resume {
			mode = os.O_RDWR | os.O_CREATE
		}
		f, err := os.OpenFile(*out, mode, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		output = f
	}
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, reg, *withPprof)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "metrics at http://%s/metrics\n", ms.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := bulk.Options{
		Concurrency: *concurrency,
		NoCoalesce:  *noCoalesce,
		Metrics:     reg,
		Output:      output,
	}
	if *ckptPath != "" {
		// The feed signature ties the checkpoint to the feed identity:
		// resuming against a different feed would silently stitch two scans
		// together, so it is refused.
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%g|%d", *backend, *names, *qtype, *n, *seed, *missRate, *zoneNames)
		opts.Checkpoint = &bulk.CheckpointConfig{
			Path:     *ckptPath,
			Interval: *ckptInterval,
			FeedSig:  h.Sum64(),
			Resume:   *resume,
			File:     output,
		}
	}

	// The feed. A file/stdin feed quarantines malformed lines under the
	// configured budget (the summary carries the skip count); the
	// synthetic feed samples the namespace.
	var (
		src   bulk.Source
		zones *zonedb.DB
	)
	newFileFeed := func() bulk.Source {
		r := os.Stdin
		if *names != "-" {
			f, err := os.Open(*names)
			if err != nil {
				log.Fatal(err)
			}
			// Closed on process exit; the feed reads it to EOF.
			r = f
		}
		policy := trace.ErrorPolicy{
			Quarantine: true,
			Budget:     trace.ErrorBudget{MaxErrors: *skipMax, MaxErrorRate: *skipRate},
			Sink: func(q trace.Quarantined) {
				fmt.Fprintf(os.Stderr, "dnsscan: skipping feed line %d: %v\n", q.Line, q.Err)
			},
		}
		return bulk.NewFeed(r, defType, policy)
	}

	var sum *bulk.Summary
	var runErr error
	switch *backend {
	case "sim":
		be, err := bulk.NewSimBackend(bulk.SimConfig{
			Shards:     *shards,
			Seed:       *seed,
			ArrivalQPS: *simQPS,
			Platform:   platID,
			ZoneNames:  *zoneNames,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *names != "" {
			src = newFileFeed()
		} else {
			src = bulk.NewSyntheticSource(be.Zones(), bulk.SyntheticConfig{
				N: *n, Seed: *seed + 1, MissFraction: *missRate, Type: defType,
			})
		}
		sum, runErr = bulk.RunSim(ctx, src, be, opts)

	case "udp", "tcp":
		addr := *server
		if *selfserve {
			zcfg := zonedb.DefaultConfig()
			if *zoneNames > 0 {
				zcfg.NumNames = *zoneNames
			}
			var err error
			zones, err = zonedb.New(zcfg, stats.NewRNG(*seed))
			if err != nil {
				log.Fatal(err)
			}
			srv := dnsserver.NewServerWith(dnsserver.ZoneHandler(zones), dnsserver.Config{Workers: 8, QueueDepth: 4096}, nil)
			if *backend == "udp" {
				bound, err := srv.Start("127.0.0.1:0")
				if err != nil {
					log.Fatal(err)
				}
				addr = bound.String()
			} else {
				bound, err := srv.StartTCP("127.0.0.1:0")
				if err != nil {
					log.Fatal(err)
				}
				addr = bound.String()
			}
			defer func() {
				dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Shutdown(dctx); err != nil {
					srv.Close()
				}
			}()
			fmt.Fprintf(os.Stderr, "selfserve: %d names on %s/%s\n", zones.Size(), *backend, addr)
		}
		if *names != "" {
			src = newFileFeed()
		} else {
			if zones == nil {
				zcfg := zonedb.DefaultConfig()
				if *zoneNames > 0 {
					zcfg.NumNames = *zoneNames
				}
				var err error
				zones, err = zonedb.New(zcfg, stats.NewRNG(*seed))
				if err != nil {
					log.Fatal(err)
				}
			}
			src = bulk.NewSyntheticSource(zones, bulk.SyntheticConfig{
				N: *n, Seed: *seed + 1, MissFraction: *missRate, Type: defType,
			})
		}
		// The upstream set: -servers, or the single -server/-selfserve
		// address.
		upstreams := []string{addr}
		if *servers != "" {
			upstreams = upstreams[:0]
			for _, a := range strings.Split(*servers, ",") {
				if a = strings.TrimSpace(a); a != "" {
					upstreams = append(upstreams, a)
				}
			}
			if len(upstreams) == 0 {
				usage("-servers lists no addresses")
			}
		}
		// Chaos: interpose an in-process fault proxy per upstream and point
		// the client at the proxies instead.
		if *chaosOn {
			prof := chaos.Profile{
				Loss:       *chaosLoss,
				Delay:      *chaosDelay,
				Jitter:     *chaosJitter,
				Reorder:    *chaosReorder,
				Duplicate:  *chaosDup,
				Corrupt:    *chaosCorrupt,
				TCPReset:   *chaosReset,
				Blackholes: blackholes,
			}
			for i, a := range upstreams {
				ccfg := chaos.Config{
					Upstream: a,
					Profile:  prof,
					// Stride 2: each proxy burns two lane seeds (up, down).
					Seed:    *chaosSeed + uint64(2*i),
					Metrics: reg,
				}
				var px *chaos.Proxy
				var err error
				if *backend == "udp" {
					px, err = chaos.NewUDP(ccfg)
				} else {
					px, err = chaos.NewTCP(ccfg)
				}
				if err != nil {
					log.Fatal(err)
				}
				defer px.Close()
				fmt.Fprintf(os.Stderr, "chaos: %s fronts %s\n", px.Addr(), a)
				upstreams[i] = px.Addr()
			}
		}
		var ex bulk.LiveExchanger
		if *backend == "udp" {
			pcfg := dnsserver.ClientPoolConfig{
				Sockets: *sockets, Timeout: *timeout, Retries: *retries, Backoff: *backoff,
				MaxTimeout: *maxTimeout,
				Adaptive:   *adaptive, Hedge: *hedge, HedgeAfter: *hedgeAfter,
				Metrics: reg,
			}
			if len(upstreams) > 1 {
				pcfg.Servers = upstreams
			}
			if *breaker {
				pcfg.Breaker = &dnsserver.BreakerConfig{}
			}
			pool, err := dnsserver.NewClientPool(upstreams[0], pcfg)
			if err != nil {
				log.Fatal(err)
			}
			defer pool.Close()
			ex = pool
		} else {
			ex = &bulk.TCPExchanger{Client: &dnsserver.Client{Server: upstreams[0], Timeout: *timeout, Retries: *retries}}
		}
		sum, runErr = bulk.RunLive(ctx, src, ex, opts)
	}

	if runErr != nil {
		// An interrupted run (SIGINT, feed error) still accounts for the
		// work it did: print the partial summary, then exit non-zero.
		if sum != nil && !*quiet {
			_ = bulk.WriteSummary(os.Stderr, sum)
		}
		log.Fatal(runErr)
	}
	if !*quiet {
		if err := bulk.WriteSummary(os.Stderr, sum); err != nil {
			log.Fatal(err)
		}
	}
}

// parseType maps the -type flag to a dnswire.Type.
func parseType(s string) (dnswire.Type, bool) {
	switch s {
	case "A", "a":
		return dnswire.TypeA, true
	case "AAAA", "aaaa":
		return dnswire.TypeAAAA, true
	case "TXT", "txt":
		return dnswire.TypeTXT, true
	case "MX", "mx":
		return dnswire.TypeMX, true
	case "ANY", "any":
		return dnswire.TypeANY, true
	}
	return 0, false
}

// parsePlatform maps the -platform flag to a resolver.PlatformID.
func parsePlatform(s string) (resolver.PlatformID, bool) {
	switch s {
	case "local":
		return resolver.PlatformLocal, true
	case "google":
		return resolver.PlatformGoogle, true
	case "opendns":
		return resolver.PlatformOpenDNS, true
	case "cloudflare":
		return resolver.PlatformCloudflare, true
	}
	return 0, false
}
