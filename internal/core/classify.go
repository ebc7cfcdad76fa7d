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
// The dataset is time-sorted in place and converted once, in parallel,
// into the analysis' record store (store.go), which holds every record
// the analysis reads: the analysis keeps no reference to the dataset.
// The pipeline then partitions connections by originating
// client (the paper's pairing, §4, keys on the originator, so shards
// share no state), runs pairing + blocking + classification for the
// shards on a bounded worker pool, and merges per-shard tallies in
// shard order. Each shard draws from its own RNG stream seeded from
// Opts.Seed and the shard ID, so the result is bit-identical for every
// Workers value and GOMAXPROCS.
func AnalyzeContext(ctx context.Context, ds *trace.Dataset, opts Options) (*Analysis, error) {
	a, _, err := analyzeDataset(ctx, ds, opts.withDefaults())
	return a, err
}

// analyzeDataset is AnalyzeContext, also returning the classified
// shard for CollectShard.
func analyzeDataset(ctx context.Context, ds *trace.Dataset, opts Options) (*Analysis, *AnalysisShard, error) {
	tr := opts.Trace
	sp := tr.StartPhase("sort")
	ds.SortByTime()
	sp.SetItems(len(ds.Conns) + len(ds.DNS))
	sp = tr.StartPhase("intern")
	st, err := buildStore(ctx, opts.Workers, ds)
	sp.SetItems(len(ds.Conns) + len(ds.DNS))
	if err != nil {
		sp.End()
		return nil, nil, analysisAborted(err)
	}
	return analyze(ctx, st, opts)
}

// analyze is the pipeline every resident run shares, over a record
// store its entry point built: AnalyzeContext from a dataset, the
// unbudgeted AnalyzeSource and CollectShard from a stream.
//
// The resident run is the unbudgeted case of the shard pipeline: every
// client is classified into an AnalysisShard by the same loop the
// out-of-core path runs per spill partition, and the shard is finalized
// through the same path as a merged one, which here also fills Paired
// and DNSUsed from the client-local pairing facts. analyze returns the
// shard for CollectShard; the Analysis does not keep it.
func analyze(ctx context.Context, st *recordStore, opts Options) (*Analysis, *AnalysisShard, error) {
	tr := opts.Trace
	tr.SetWorkers(parallel.Workers(opts.Workers))
	sp := tr.StartPhase("shard")
	a := &Analysis{Opts: opts, st: st, connTotal: len(st.conns), dnsTotal: len(st.dns),
		digest: totalsDigest(len(st.conns), len(st.dns))}
	var err error
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "shard"), func(context.Context) {
		a.shards, err = buildShards(ctx, opts.Workers, st)
	})
	sp.SetItems(len(a.shards.list))
	if err != nil {
		sp.End()
		return nil, nil, analysisAborted(err)
	}
	sp = tr.StartPhase("thresholds")
	var thByRes []time.Duration
	a.Thresholds, thByRes = deriveThresholds(&opts, int64(len(st.dns)), st.resolvers)
	sp.SetItems(len(a.Thresholds))

	sp = tr.StartPhase("classify")
	sp.SetItems(len(st.conns))
	shard := &AnalysisShard{
		opts:      opts,
		dnsTotal:  int64(len(st.dns)),
		connTotal: int64(len(st.conns)),
		resolvers: st.resolvers,
		clients:   make([]clientResult, len(a.shards.list)),
	}
	var ck *ckRun
	if opts.Checkpoint != nil && opts.Checkpoint.Path != "" {
		ck = newCkRun(a, shard, opts.Checkpoint)
		if opts.Checkpoint.Resume {
			if err := ck.restore(); err != nil {
				sp.End()
				return nil, nil, analysisAborted(err)
			}
		}
	}
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "classify"), func(context.Context) {
		err = parallel.ForEach(ctx, opts.Workers, len(a.shards.list), func(s int) error {
			if ck != nil && ck.isRestored(s) {
				return nil
			}
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			shard.clients[s] = classifyClient(&opts, s, st, &a.shards, s)
			if tr != nil {
				sh := &a.shards.list[s]
				tr.ShardDone(int(sh.conn1-sh.conn0), time.Since(t0))
			}
			if ck != nil {
				return ck.complete(s)
			}
			return nil
		})
	})
	if err != nil {
		sp.End()
		return nil, nil, analysisAborted(err)
	}
	sp = tr.StartPhase("merge")
	a.Paired, a.DNSUsed = make([]PairedConn, len(st.conns)), make([]bool, len(st.dns))
	a.finalize(shard.clients, thByRes)
	sp.SetItems(len(shard.clients))
	sp.End()
	a.publishMetrics(opts.Metrics)
	return a, shard, nil
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
		Add(uint64(len(a.shards.list)))
	reg.Counter("dnsctx_analyzer_dns_records_total",
		"DNS records in the analyzed dataset.").Add(uint64(a.dnsTotal))
}

func analysisAborted(err error) error {
	return fmt.Errorf("dnscontext: analysis aborted: %w", err)
}

// classifyClient pairs one client's connections with its own lookups
// and records each connection's pairing facts. st holds the records
// (the whole trace in memory, one spill partition out of core) and s
// is the client's shard in set. Connections are processed in
// start-time order so "first use of a lookup" stays well defined;
// across clients there is nothing to order, because a DNS record can
// only pair with its own client's connections. rank seeds the client's
// RNG stream, so it must be the client's position in the whole trace's
// shard order for PairRandom results to match at every representation.
// Entries index lookups within the client's DNS records.
func classifyClient(opts *Options, rank int, st *recordStore, set *shardSet, s int) clientResult {
	conns, dns := set.records(s)
	c := clientResult{client: st.addrs[set.list[s].client], nDNS: int32(len(dns))}
	if len(conns) == 0 {
		return c
	}
	idx := buildIndex(st, dns)
	rng := stats.NewRNG(opts.Seed + uint64(rank))
	used := make([]bool, len(dns))
	// fresh is the pairing scan's scratch, reused across the client's
	// connections so steady-state pairing allocates nothing.
	var fresh []int32
	c.entries = make([]connEntry, len(conns))
	for j, ci := range conns {
		conn := &st.conns[ci]
		e := &c.entries[j]
		var l, cand int
		l, cand, fresh = pair(opts.Pairing, idx, conn, rng, fresh)
		if l < 0 {
			e.localDNS, e.res = -1, -1
			continue
		}
		d := &st.dns[dns[l]]
		e.localDNS = int32(l)
		e.gap = conn.ts - d.ts
		e.candidates = int32(cand)
		e.firstUse = !used[l]
		used[l] = true
		e.usedExpired = conn.ts >= d.expiry
		e.lookupDur = d.duration()
		e.res = d.res
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
