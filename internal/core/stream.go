package core

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"sync"
	"time"

	"dnscontext/internal/blocks"
	"dnscontext/internal/parallel"
	"dnscontext/internal/trace"
)

// AnalyzeSource runs the full classification pipeline over a streaming
// Source in bounded memory. With no memory budget (Options.MemoryBudget
// zero) the source is ingested whole and the in-memory pipeline runs —
// an in-memory DatasetSource short-circuits straight to AnalyzeContext
// with zero copying. With a budget, ingestion retains records only
// until the budget trips, then spills them to client-hashed partition
// files and classifies one partition at a time, producing a
// summary-grade Analysis (see Analysis.Summary) whose classification
// results, thresholds, failure statistics, and Digest are bit-identical
// to what the in-memory pipeline computes on the same trace.
//
// A budgeted run holds what the budget or a constant bounds: the
// records retained until the trip (the budget), then the parse
// pipeline's chunks, one spill buffer of 16 KiB for each of the 32
// partitions of the stream being written, and, while classifying, one
// partition's records and pairing index. Each client is finalized as
// soon as it is classified, so the run keeps nothing per connection;
// what grows with the trace is per client and per resolver.
//
// The streaming map phase is exposed separately as CollectShard for
// multi-process runs: each process collects a shard over its slice of
// the trace, and MergeShards + Finalize reduce them to the same result.
// A shard is the pairing facts of every connection (40 bytes each), so
// CollectShard holds them by design.
func AnalyzeSource(ctx context.Context, src trace.Source, opts Options) (*Analysis, error) {
	opts = opts.withDefaults()
	if d, ok := src.(*trace.DatasetSource); ok && opts.MemoryBudget <= 0 {
		return AnalyzeContext(ctx, d.DS, opts)
	}
	applyIngestWorkers(src, opts)
	run := &streamRun{opts: opts}
	defer run.cleanup()
	return run.analyzeSource(ctx, src)
}

// analyzeSource is AnalyzeSource past its short cut: it ingests src and
// analyzes it in memory if the budget never tripped, else one spill
// partition at a time.
func (r *streamRun) analyzeSource(ctx context.Context, src trace.Source) (*Analysis, error) {
	if err := r.ingest(ctx, src); err != nil {
		return nil, analysisAborted(err)
	}
	if !r.spilled {
		a, _, err := analyze(ctx, r.store(), r.opts)
		return a, err
	}
	// Ingest has summarized every resolver, so the thresholds are final
	// before the first client is classified, and each client is folded
	// into the analysis as it is: both folds are order-independent.
	sp := r.opts.Trace.StartPhase("thresholds")
	a, thByRes := newSummary(r.opts, r.dnsTotal, r.connTotal, r.failures, r.resolvers)
	sp.SetItems(len(a.Thresholds))
	var mu sync.Mutex
	err := r.collect(ctx, func(c clientResult) {
		var counts [numClasses]int
		digest := a.foldClient(&c, thByRes, &counts, nil, nil)
		mu.Lock()
		for k, n := range counts {
			a.classCounts[k] += n
		}
		a.digest ^= digest
		mu.Unlock()
	})
	if err != nil {
		return nil, analysisAborted(err)
	}
	a.publishMetrics(r.opts.Metrics)
	r.publishMetrics()
	return a, nil
}

// CollectShard is the map phase of the out-of-core pipeline: it ingests
// src exactly as AnalyzeSource does but stops at the mergeable
// AnalysisShard instead of finalizing, so several processes can each
// cover a client-disjoint slice of a trace and a final process can
// MergeShards + Finalize them. Every option that affects results must
// match across collectors (Merge verifies this); under PairRandom the
// merged result is additionally sensitive to process-local shard ranks,
// so cross-process exactness is only guaranteed under PairMostRecent.
func CollectShard(ctx context.Context, src trace.Source, opts Options) (*AnalysisShard, error) {
	opts = opts.withDefaults()
	inMemory := func(a *Analysis, sh *AnalysisShard, err error) (*AnalysisShard, error) {
		if err != nil {
			return nil, err
		}
		sh.failures = a.Failures()
		return sh, nil
	}
	if d, ok := src.(*trace.DatasetSource); ok && opts.MemoryBudget <= 0 {
		return inMemory(analyzeDataset(ctx, d.DS, opts))
	}
	applyIngestWorkers(src, opts)
	run := &streamRun{opts: opts}
	defer run.cleanup()
	if err := run.ingest(ctx, src); err != nil {
		return nil, analysisAborted(err)
	}
	if !run.spilled {
		return inMemory(analyze(ctx, run.store(), opts))
	}
	sh := &AnalysisShard{
		opts:      opts,
		dnsTotal:  run.dnsTotal,
		connTotal: run.connTotal,
		failures:  run.failures,
		resolvers: run.resolvers,
	}
	var mu sync.Mutex
	err := run.collect(ctx, func(c clientResult) {
		mu.Lock()
		sh.clients = append(sh.clients, c)
		mu.Unlock()
	})
	if err != nil {
		return nil, analysisAborted(err)
	}
	run.publishMetrics()
	return sh, nil
}

// ingestTunable is the optional Source capability of fanning its input
// parsing out over several goroutines (trace.ScannerSource, DirSource).
type ingestTunable interface{ SetIngestWorkers(int) }

// applyIngestWorkers parses sources that support it on the resolved
// Workers pool width; a width of one parses on one goroutine, through
// the same chunk pipeline as every other width.
func applyIngestWorkers(src trace.Source, opts Options) {
	if tun, ok := src.(ingestTunable); ok {
		tun.SetIngestWorkers(parallel.Workers(opts.Workers))
	}
}

// streamRun is the state of one out-of-core ingest + classify pass.
type streamRun struct {
	opts Options

	// Resident mode: records converted to the record store's form as
	// they arrive and retained until the budget trips, charged with
	// their blocks' unused capacity and the table entries they add.
	tables       symbolTables
	dns          blocks.List[dnsRec]
	answers      blocks.List[answerRec]
	conns        blocks.List[connRec]
	retained     int64
	peakRetained int64

	// Spill mode. dnsDone marks the end of the DNS stream, after which
	// its writer has finished.
	spilled        bool
	dnsDone        bool
	spillDir       string
	ownsDir        bool
	dnsW, connW    *spillWriter
	spilledRecords int64

	// Whole-trace accumulators, all associative: totals, failure stats,
	// per-resolver (count, min) for threshold derivation, and the
	// client first-appearance orders that reproduce the in-memory shard
	// ranks (conn originators first, then DNS-only clients). Only the
	// spill path reads them beyond the totals, so records are folded in
	// from the trip on (observeDNS, observeConn).
	dnsTotal, connTotal int64
	failures            FailureStats
	rsyms               map[netip.Addr]int32
	resolvers           []resolverStat
	connRank            map[netip.Addr]int32
	connOrder           []netip.Addr
	dnsRank             map[netip.Addr]int32
	dnsOrder            []netip.Addr
}

// cleanup closes and removes the spill partitions, if any. It runs once
// the partitions are read, and again, as a no-op, when the run returns.
func (r *streamRun) cleanup() {
	for _, w := range []*spillWriter{r.dnsW, r.connW} {
		if w != nil {
			w.close()
		}
	}
	if r.spillDir == "" {
		return
	}
	if r.ownsDir {
		os.RemoveAll(r.spillDir)
	} else {
		// A caller-provided spill dir is theirs; only the scratch
		// partitions this run created are removed.
		for p := 0; p < spillParts; p++ {
			os.Remove(spillPath(r.spillDir, "dns", p))
			os.Remove(spillPath(r.spillDir, "conn", p))
		}
	}
	r.spillDir = ""
}

func spillPath(dir, stream string, p int) string {
	return fmt.Sprintf("%s/%s-%03d.spill", dir, stream, p)
}

// ingest scans the source — DNS first, then connections — verifying
// time order, counting records, and converting and retaining them
// until the memory budget trips, after which records go to the spill
// partitions instead.
func (r *streamRun) ingest(ctx context.Context, src trace.Source) error {
	r.tables = newSymbolTables()
	tr := r.opts.Trace
	sp := tr.StartPhase("ingest-dns")
	var lastTS time.Duration
	first := true
	err := src.StreamDNS(func(d *trace.DNSRecord) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !first && d.TS < lastTS {
			return fmt.Errorf("source DNS stream out of order: response at %v after %v (sources must yield nondecreasing TS)", d.TS, lastTS)
		}
		first, lastTS = false, d.TS
		r.dnsTotal++
		if r.spilled {
			r.observeDNS(d)
			r.spilledRecords++
			return r.dnsW.writeDNS(d)
		}
		// Each block is charged whole when it opens.
		charged := r.tables.charged
		rec := r.tables.dns(d, uint32(r.answers.Len()))
		n := int64(r.dns.Push(&rec)) * dnsRecBytes
		for k := range d.Answers {
			a := r.tables.answer(&d.Answers[k])
			n += int64(r.answers.Push(&a)) * answerRecBytes
		}
		return r.account(n + r.tables.charged - charged)
	})
	r.dnsDone = true
	if err == nil && r.spilled {
		// Every DNS frame is written: the writer's buffers go before the
		// first connection is read.
		err = r.dnsW.finish()
	}
	sp.SetItems(int(r.dnsTotal))
	if err != nil {
		return err
	}
	if !r.spilled {
		// The DNS stream is complete: flatten it now, so its blocks are
		// garbage before the connection stream grows.
		r.retained -= int64(r.dns.Slack())*dnsRecBytes + int64(r.answers.Slack())*answerRecBytes
		r.dns.Flatten()
		r.answers.Flatten()
	}

	sp = tr.StartPhase("ingest-conns")
	first, lastTS = true, 0
	err = src.StreamConns(func(c *trace.ConnRecord) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !first && c.TS < lastTS {
			return fmt.Errorf("source connection stream out of order: start at %v after %v (sources must yield nondecreasing TS)", c.TS, lastTS)
		}
		first, lastTS = false, c.TS
		r.connTotal++
		if r.spilled {
			r.observeConn(c)
			r.spilledRecords++
			return r.connW.writeConn(c)
		}
		charged := r.tables.charged
		rec := r.tables.conn(c)
		return r.account(int64(r.conns.Push(&rec))*connRecBytes + r.tables.charged - charged)
	})
	// Ingest work, kept inside the phase: the resident stream's final
	// copy, or the spill writer's last flush.
	if err == nil && r.spilled {
		err = r.connW.finish()
	} else if err == nil {
		r.conns.Flatten()
	}
	sp.SetItems(int(r.connTotal))
	sp.End()
	return err
}

// store returns the record store of a run that never spilled, whose
// streams ingest has already flattened.
func (r *streamRun) store() *recordStore {
	return &recordStore{
		symbolTables: r.tables,
		dns:          r.dns.Flatten(),
		answers:      r.answers.Flatten(),
		conns:        r.conns.Flatten(),
	}
}

// observeDNS folds one DNS record into the whole-trace accumulators.
func (r *streamRun) observeDNS(d *trace.DNSRecord) {
	r.failures.add(&dnsRec{nAns: uint32(len(d.Answers)), rcode: d.RCode, retries: d.Retries, tc: d.TC})
	rs, ok := r.rsyms[d.Resolver]
	if !ok {
		rs = int32(len(r.resolvers))
		r.rsyms[d.Resolver] = rs
		r.resolvers = append(r.resolvers, resolverStat{addr: d.Resolver})
	}
	r.resolvers[rs].add(1, d.Duration())
	if _, ok := r.dnsRank[d.Client]; !ok {
		r.dnsRank[d.Client] = int32(len(r.dnsOrder))
		r.dnsOrder = append(r.dnsOrder, d.Client)
	}
}

// observeConn folds one connection record into the accumulators.
func (r *streamRun) observeConn(c *trace.ConnRecord) {
	if _, ok := r.connRank[c.Orig]; !ok {
		r.connRank[c.Orig] = int32(len(r.connOrder))
		r.connOrder = append(r.connOrder, c.Orig)
	}
}

// account charges n retained bytes against the budget, tripping the
// spill when it is exceeded.
func (r *streamRun) account(n int64) error {
	r.retained += n
	if r.retained > r.peakRetained {
		r.peakRetained = r.retained
	}
	if r.opts.MemoryBudget > 0 && r.retained > r.opts.MemoryBudget {
		return r.trip()
	}
	return nil
}

// trip switches the run to spill mode: create the partition files,
// convert every retained record back to its trace form, one at a time,
// fold it into the whole-trace accumulators and flush it to its
// partition (both in arrival order, so rank orders match an eager fold
// and per-client sequences stay time-ordered), and release the retained
// records and their tables.
func (r *streamRun) trip() error {
	dir := r.opts.SpillDir
	if dir == "" {
		d, err := os.MkdirTemp("", "dnsctx-spill-*")
		if err != nil {
			return fmt.Errorf("creating spill dir: %w", err)
		}
		dir, r.ownsDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating spill dir: %w", err)
	}
	r.spillDir = dir
	var err error
	if r.dnsW, err = newSpillWriter(dir, "dns"); err != nil {
		return err
	}
	if r.connW, err = newSpillWriter(dir, "conn"); err != nil {
		return err
	}
	r.rsyms = make(map[netip.Addr]int32)
	r.connRank = make(map[netip.Addr]int32)
	r.dnsRank = make(map[netip.Addr]int32)
	// A record's answers are the next ones of the answer stream, which
	// may cross a block boundary: walk the blocks with a cursor.
	var ans []answerRec
	var buf []trace.Answer
	ansBlocks := r.answers.Blocks()
	blk, pos := 0, 0
	err = r.dns.Each(func(d *dnsRec) error {
		ans = ans[:0]
		for range d.nAns {
			for pos == len(ansBlocks[blk]) {
				blk, pos = blk+1, 0
			}
			ans = append(ans, ansBlocks[blk][pos])
			pos++
		}
		rec := r.tables.traceDNS(d, ans, buf)
		if rec.Answers != nil {
			buf = rec.Answers
		}
		r.observeDNS(&rec)
		return r.dnsW.writeDNS(&rec)
	})
	if err == nil && r.dnsDone {
		// Tripped in the connection stream: the DNS partitions are
		// complete.
		err = r.dnsW.finish()
	}
	if err != nil {
		return err
	}
	err = r.conns.Each(func(c *connRec) error {
		rec := r.tables.traceConn(c)
		r.observeConn(&rec)
		return r.connW.writeConn(&rec)
	})
	if err != nil {
		return err
	}
	r.spilledRecords += int64(r.dns.Len() + r.conns.Len())
	r.dns, r.answers, r.conns = blocks.List[dnsRec]{}, blocks.List[answerRec]{}, blocks.List[connRec]{}
	r.tables = symbolTables{}
	r.retained = 0
	r.spilled = true
	return nil
}

// collect classifies the spilled trace and hands each classified
// client to keep, from several goroutines at once. The producer loads
// one partition at a time (each holds every record of its clients,
// since partitioning hashes the client) and the consumers classify per
// client; keep must fold commutatively, so what it builds is identical
// for every worker count. The spill partitions are removed once read,
// inside the phase, so the run's phases cover its end.
func (r *streamRun) collect(ctx context.Context, keep func(clientResult)) error {
	tr := r.opts.Trace
	sp := tr.StartPhase("classify-spill")
	defer sp.End()
	// Shard ranks replicate buildShards over the whole trace:
	// conn-originating clients in first-connection order, then DNS-only
	// clients in first-lookup order. Ranks seed the per-client RNG
	// streams, keeping PairRandom runs bit-identical to the in-memory
	// pipeline.
	rank := make(map[netip.Addr]int, len(r.connOrder)+len(r.dnsOrder))
	for i, c := range r.connOrder {
		rank[c] = i
	}
	for _, c := range r.dnsOrder {
		if _, ok := rank[c]; !ok {
			rank[c] = len(rank)
		}
	}

	// A job is one client of a loaded partition.
	type job struct {
		p *partition
		s int
	}
	workers := parallel.Workers(r.opts.Workers)
	produce := func(emit func(job) error) error {
		ld := partitionLoader{dir: r.spillDir, resolvers: r.resolvers}
		for p := 0; p < spillParts; p++ {
			part, err := ld.load(p, r.dnsW.counts[p], r.connW.counts[p])
			if err != nil {
				return err
			}
			for s := range part.shards.list {
				if err := emit(job{part, s}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	consume := func(j job) error {
		p := j.p
		client := p.st.addrs[p.shards.list[j.s].client]
		keep(classifyClient(&r.opts, rank[client], p.st, &p.shards, j.s))
		return nil
	}
	// Buffer a handful of clients so the producer reads the next
	// partition while consumers classify the previous one's tail.
	if err := parallel.Stream(ctx, r.opts.Workers, workers*2, produce, consume); err != nil {
		return err
	}
	sp.SetItems(len(rank))
	r.cleanup()
	return nil
}

// publishMetrics records the streaming run's counters.
func (r *streamRun) publishMetrics() {
	reg := r.opts.Metrics
	if reg == nil || !r.spilled {
		return
	}
	reg.Counter("dnsctx_stream_spilled_records_total",
		"Trace records diverted to spill partitions by the memory budget.").
		Add(uint64(r.spilledRecords))
	reg.Counter("dnsctx_stream_spill_partitions_total",
		"Spill partitions (per stream) the out-of-core classify phase consumed.").
		Add(spillParts)
}
