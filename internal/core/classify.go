package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"dnscontext/internal/obs"
	"dnscontext/internal/parallel"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// Analyze runs the full pipeline over ds: DN-Hunter pairing, the blocking
// heuristic, per-resolver SC/R thresholds, and Table 2 classification.
// The dataset is time-sorted in place. It is AnalyzeContext without
// cancellation or checkpointing: opts.Checkpoint is ignored, because a
// snapshot that cannot be written or does not match the run is an error
// only AnalyzeContext can return.
func Analyze(ds *trace.Dataset, opts Options) *Analysis {
	opts.Checkpoint = nil
	a, err := AnalyzeContext(context.Background(), ds, opts)
	if err != nil {
		// Unreachable: without a checkpoint the only failure mode is
		// context cancellation, and Background never cancels.
		panic(err)
	}
	return a
}

// AnalyzeContext is Analyze with cooperative cancellation: the worker
// pool checks ctx between shards. A cancelled run returns a nil Analysis
// and an error wrapping the context's error — never a partial result.
//
// The pipeline partitions connections by originating client (the paper's
// pairing, §4, keys on the originator, so shards share no state), runs
// pairing + blocking + classification for the shards on a bounded worker
// pool, and merges per-shard tallies in shard order. Each shard draws
// from its own RNG stream seeded from Opts.Seed and the shard ID, so the
// result is bit-identical for every Workers value and GOMAXPROCS.
func AnalyzeContext(ctx context.Context, ds *trace.Dataset, opts Options) (*Analysis, error) {
	return analyze(ctx, ds, opts, nil)
}

// analyze is the pipeline behind AnalyzeContext. prep, when non-nil, is
// a symbol sidecar a streaming ingest built concurrently with its
// connection scan; it is only valid when built over ds.DNS in an order
// SortByTime preserves (the ingest verifies nondecreasing TS, so the
// stable sort's early-out leaves the records untouched) — the length
// check guards against anything else.
//
// The resident run is the unbudgeted case of the shard pipeline: every
// client is classified into an AnalysisShard (a.shard) by the same loop
// the out-of-core path runs per spill partition, and the shard is
// finalized through the same path as a merged one, which here also
// fills Paired and DNSUsed from the client-local pairing facts.
func analyze(ctx context.Context, ds *trace.Dataset, opts Options, prep *sidecars) (*Analysis, error) {
	opts = opts.withDefaults()
	tr := opts.Trace
	tr.SetWorkers(parallel.Workers(opts.Workers))

	sp := tr.StartPhase("sort")
	ds.SortByTime()
	sp.SetItems(len(ds.Conns) + len(ds.DNS))
	a := &Analysis{
		Opts:      opts,
		DS:        ds,
		Paired:    make([]PairedConn, len(ds.Conns)),
		DNSUsed:   make([]bool, len(ds.DNS)),
		connTotal: len(ds.Conns),
		dnsTotal:  len(ds.DNS),
	}

	// Phase overlap: shard building reads only the sorted dataset, while
	// the symbol build feeds the threshold derivation — so sharding runs
	// concurrently with intern+thresholds and joins before classify. The
	// overlapped stages write disjoint Analysis fields, and neither reads
	// the other's output, so the result is the same as running them in
	// sequence.
	shardSp := tr.StartConcurrent("shard")
	shardDone := make(chan error, 1)
	go func() {
		var err error
		pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "shard"), func(context.Context) {
			a.shards, err = buildShards(ctx, opts.Workers, ds.DNS, ds.Conns)
		})
		shardSp.SetItems(len(a.shards))
		shardSp.End()
		shardDone <- err
	}()

	sp = tr.StartPhase("intern")
	if prep != nil && len(prep.qsym) == len(ds.DNS) {
		a.adoptSidecars(prep)
	} else if err := a.buildSymbols(ctx); err != nil {
		<-shardDone
		return nil, analysisAborted(err)
	}
	sp.SetItems(len(ds.DNS))
	sp = tr.StartPhase("thresholds")
	var thByRes []time.Duration
	a.Thresholds, thByRes = deriveThresholds(&opts, int64(len(ds.DNS)), a.resolvers)
	sp.SetItems(len(a.Thresholds))
	if err := <-shardDone; err != nil {
		return nil, analysisAborted(err)
	}

	sp = tr.StartPhase("classify")
	sp.SetItems(len(a.Paired))
	shard := &AnalysisShard{
		opts:      opts,
		dnsTotal:  int64(len(ds.DNS)),
		connTotal: int64(len(ds.Conns)),
		resolvers: a.resolvers,
		clients:   make([]clientResult, len(a.shards)),
	}
	var ck *ckRun
	if opts.Checkpoint != nil && opts.Checkpoint.Path != "" {
		ck = newCkRun(a, shard, opts.Checkpoint)
		if opts.Checkpoint.Resume {
			if err := ck.restore(); err != nil {
				return nil, analysisAborted(err)
			}
		}
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "classify"), func(context.Context) {
		err = parallel.ForEach(ctx, opts.Workers, len(a.shards), func(s int) error {
			if ck != nil && ck.isRestored(s) {
				return nil
			}
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			shard.clients[s] = classifyClient(&opts, s, ds.DNS, a.expiry, a.rsym, ds.Conns, &a.shards[s])
			if tr != nil {
				tr.ShardDone(len(a.shards[s].conns), time.Since(t0))
			}
			if ck != nil {
				return ck.complete(s)
			}
			return nil
		})
	})
	if err != nil {
		return nil, analysisAborted(err)
	}
	sp = tr.StartPhase("merge")
	a.finalize(shard, thByRes)
	sp.SetItems(len(shard.clients))
	sp.End()
	a.publishMetrics(opts.Metrics)
	return a, nil
}

// publishMetrics records the finished run's tallies with reg. It runs
// after the pipeline completes, so the registry observes results without
// any opportunity to influence them.
func (a *Analysis) publishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	byClass := reg.CounterVec("dnsctx_analyzer_connections_total",
		"Connections classified, by DNS-information-origin class (Table 2).", "class")
	for c := ClassN; c < numClasses; c++ {
		byClass.With(c.String()).Add(uint64(a.classCounts[c]))
	}
	reg.Counter("dnsctx_analyzer_shards_total",
		"Per-client shards the pipeline partitioned the dataset into.").
		Add(uint64(len(a.shards)))
	reg.Counter("dnsctx_analyzer_dns_records_total",
		"DNS records in the analyzed dataset.").Add(uint64(a.dnsTotal))
}

func analysisAborted(err error) error {
	return fmt.Errorf("dnscontext: analysis aborted: %w", err)
}

// classifyClient pairs one client's connections with its own lookups
// and records each connection's pairing facts. dns and conns hold the
// records (the whole dataset in memory, one spill partition out of
// core), expiry and rsym are dns's per-record sidecars, and sh lists
// the client's records in each, ascending (= time order). Connections
// are processed in start-time order so "first use of a lookup" stays
// well defined; across clients there is nothing to order, because a
// DNS record can only pair with its own client's connections. rank
// seeds the client's RNG stream, so it must be the client's position
// in the whole trace's shard order for PairRandom results to match at
// every representation. Entries index lookups within sh.dns.
func classifyClient(opts *Options, rank int, dns []trace.DNSRecord, expiry []time.Duration,
	rsym []int32, conns []trace.ConnRecord, sh *clientShard) clientResult {
	c := clientResult{client: sh.client, nDNS: int32(len(sh.dns))}
	if len(sh.conns) == 0 {
		return c
	}
	idx := buildIndex(dns, expiry, sh.dns)
	rng := stats.NewRNG(opts.Seed + uint64(rank))
	used := make([]bool, len(sh.dns))
	// fresh is the pairing scan's scratch, reused across the client's
	// connections so steady-state pairing allocates nothing.
	var fresh []int32
	c.entries = make([]connEntry, len(sh.conns))
	for j, ci := range sh.conns {
		conn := &conns[ci]
		e := &c.entries[j]
		var l, cand int
		l, cand, fresh = pair(opts.Pairing, idx, conn, rng, fresh)
		if l < 0 {
			e.localDNS, e.res = -1, -1
			continue
		}
		di := sh.dns[l]
		d := &dns[di]
		e.localDNS = int32(l)
		e.gap = conn.TS - d.TS
		e.candidates = int32(cand)
		e.firstUse = !used[l]
		used[l] = true
		e.usedExpired = conn.TS >= expiry[di]
		e.lookupDur = d.Duration()
		e.res = rsym[di]
	}
	return c
}

// Table2Row is one line of Table 2.
type Table2Row struct {
	Class    Class
	Conns    int
	Fraction float64
}

// Table2 computes the DNS-information-origin breakdown.
func (a *Analysis) Table2() []Table2Row {
	total := a.connTotal
	rows := make([]Table2Row, 0, numClasses)
	for c := ClassN; c < numClasses; c++ {
		frac := 0.0
		if total > 0 {
			frac = float64(a.classCounts[c]) / float64(total)
		}
		rows = append(rows, Table2Row{Class: c, Conns: a.classCounts[c], Fraction: frac})
	}
	return rows
}

// BlockedFraction is the share of connections awaiting DNS (SC + R).
func (a *Analysis) BlockedFraction() float64 {
	return a.Fraction(ClassSC) + a.Fraction(ClassR)
}

// SharedCacheHitRate is SC / (SC + R): how often a blocked connection's
// record was in the shared resolver cache (paper: 62.6%).
func (a *Analysis) SharedCacheHitRate() float64 {
	sc, r := a.Count(ClassSC), a.Count(ClassR)
	if sc+r == 0 {
		return 0
	}
	return float64(sc) / float64(sc+r)
}
