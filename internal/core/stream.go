package core

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"sync"
	"time"
	"unsafe"

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
// The streaming map phase is exposed separately as CollectShard for
// multi-process runs: each process collects a shard over its slice of
// the trace, and MergeShards + Finalize reduce them to the same result.
func AnalyzeSource(ctx context.Context, src trace.Source, opts Options) (*Analysis, error) {
	opts = opts.withDefaults()
	if d, ok := src.(*trace.DatasetSource); ok && opts.MemoryBudget <= 0 {
		return AnalyzeContext(ctx, d.DS, opts)
	}
	applyIngestWorkers(src, opts)
	run := newStreamRun(opts)
	defer run.cleanup()
	if err := run.ingest(ctx, src); err != nil {
		return nil, analysisAborted(err)
	}
	if !run.spilled {
		return analyze(ctx, run.dataset(), opts, run.takePrep())
	}
	sh, err := run.collect(ctx)
	if err != nil {
		return nil, analysisAborted(err)
	}
	sp := opts.Trace.StartPhase("reduce")
	a := sh.Finalize()
	sp.SetItems(len(sh.clients))
	sp.End()
	a.publishMetrics(opts.Metrics)
	run.publishMetrics()
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
	inMemory := func(ds *trace.Dataset, prep *sidecars) (*AnalysisShard, error) {
		a, err := analyze(ctx, ds, opts, prep)
		if err != nil {
			return nil, err
		}
		a.shard.failures = a.Failures()
		return a.shard, nil
	}
	if d, ok := src.(*trace.DatasetSource); ok && opts.MemoryBudget <= 0 {
		return inMemory(d.DS, nil)
	}
	applyIngestWorkers(src, opts)
	run := newStreamRun(opts)
	defer run.cleanup()
	if err := run.ingest(ctx, src); err != nil {
		return nil, analysisAborted(err)
	}
	if !run.spilled {
		return inMemory(run.dataset(), run.takePrep())
	}
	sh, err := run.collect(ctx)
	if err != nil {
		return nil, analysisAborted(err)
	}
	run.publishMetrics()
	return sh, nil
}

// ingestTunable is the optional Source capability of fanning its input
// parsing out over several goroutines (trace.ScannerSource, DirSource).
type ingestTunable interface{ SetIngestWorkers(int) }

// applyIngestWorkers resolves Options.IngestWorkers — positive: that
// many; zero: inherit the Workers pool width; negative: serial — and
// applies it to sources that support parallel parsing.
func applyIngestWorkers(src trace.Source, opts Options) {
	tun, ok := src.(ingestTunable)
	if !ok {
		return
	}
	switch {
	case opts.IngestWorkers > 0:
		tun.SetIngestWorkers(opts.IngestWorkers)
	case opts.IngestWorkers < 0:
		tun.SetIngestWorkers(1)
	default:
		tun.SetIngestWorkers(parallel.Workers(opts.Workers))
	}
}

// streamRun is the state of one out-of-core ingest + classify pass.
type streamRun struct {
	opts  Options
	parts int

	// Resident mode: records retained until the budget trips, charged
	// with their blocks' unused capacity.
	dns          recordBlocks[trace.DNSRecord]
	conns        recordBlocks[trace.ConnRecord]
	retained     int64
	peakRetained int64

	// Spill mode.
	spilled        bool
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

	// prepCh, when non-nil, delivers the symbol sidecar a background
	// goroutine builds over the resident DNS records while the
	// connection stream is still scanning — the ingest/analysis overlap.
	// Buffered(1), so the builder never blocks; discarded if the budget
	// trips mid-conn-scan (the spill path derives its own state).
	prepCh chan *sidecars
}

func newStreamRun(opts Options) *streamRun {
	parts := opts.SpillParts
	if parts <= 0 {
		parts = defaultSpillParts
	}
	return &streamRun{opts: opts, parts: parts}
}

func (r *streamRun) cleanup() {
	if r.dnsW != nil {
		r.dnsW.close()
	}
	if r.connW != nil {
		r.connW.close()
	}
	if r.spillDir != "" {
		if r.ownsDir {
			os.RemoveAll(r.spillDir)
		} else {
			// A caller-provided spill dir is theirs; only the scratch
			// partitions this run created are removed.
			for p := 0; p < r.parts; p++ {
				os.Remove(spillPath(r.spillDir, "dns", p))
				os.Remove(spillPath(r.spillDir, "conn", p))
			}
		}
	}
}

func spillPath(dir, stream string, p int) string {
	return fmt.Sprintf("%s/%s-%03d.spill", dir, stream, p)
}

// ingest scans the source — DNS first, then connections — verifying
// time order, counting records, and retaining them until the memory
// budget trips, after which records go to the spill partitions instead.
func (r *streamRun) ingest(ctx context.Context, src trace.Source) error {
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
			return r.dnsW.writeDNS(d, r.parts)
		}
		// The record's slot was charged as slack when its block opened.
		opened := r.dns.push(d)
		return r.account(retainedDNSBytes(d) + int64(opened-1)*dnsRecordBytes)
	})
	sp.SetItems(int(r.dnsTotal))
	if err != nil {
		return err
	}

	// The DNS stream is complete; when it is still fully resident, build
	// the symbol sidecar now, overlapped with the connection scan, so the
	// in-memory analysis adopts it instead of re-walking the records.
	// The goroutine reads only its private slice header's elements —
	// a later budget trip releases the blocks but never mutates the
	// records — and takePrep discards the result if the run spilled.
	if !r.spilled && r.dns.n > 0 {
		r.retained -= int64(r.dns.slack()) * dnsRecordBytes
		dns := r.dns.flatten()
		r.prepCh = make(chan *sidecars, 1)
		psp := tr.StartConcurrent("prep-symbols")
		go func() {
			sc, err := buildSidecars(ctx, r.opts.Workers, dns)
			if err != nil {
				sc = nil // cancelled; analyze will fail on ctx anyway
			}
			psp.SetItems(len(dns))
			psp.End()
			r.prepCh <- sc
		}()
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
			return r.connW.writeConn(c, r.parts)
		}
		opened := r.conns.push(c)
		return r.account(retainedConnBytes() + int64(opened-1)*connRecordBytes)
	})
	if err == nil && !r.spilled {
		r.conns.flatten() // ingest work: keep it inside the phase
	}
	sp.SetItems(int(r.connTotal))
	sp.End()
	if err != nil {
		return err
	}
	if r.spilled {
		if err := r.dnsW.flushAll(); err != nil {
			return err
		}
		return r.connW.flushAll()
	}
	return nil
}

// takePrep collects the overlapped sidecar build, if one was started
// and is still valid (a spill invalidates it: the resident records it
// indexed were released).
func (r *streamRun) takePrep() *sidecars {
	if r.prepCh == nil {
		return nil
	}
	sc := <-r.prepCh
	r.prepCh = nil
	if r.spilled {
		return nil
	}
	return sc
}

// dataset returns the fully resident trace of a run that never spilled,
// whose streams ingest has already flattened.
func (r *streamRun) dataset() *trace.Dataset {
	return &trace.Dataset{DNS: r.dns.flatten(), Conns: r.conns.flatten()}
}

// observeDNS folds one DNS record into the whole-trace accumulators.
func (r *streamRun) observeDNS(d *trace.DNSRecord) {
	r.failures.add(d)
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
// fold every retained record into the whole-trace accumulators and
// flush it to its partition (both in arrival order, so rank orders
// match an eager fold and per-client sequences stay time-ordered), and
// release the retained blocks.
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
	if r.dnsW, err = newSpillWriter(dir, "dns", r.parts); err != nil {
		return err
	}
	if r.connW, err = newSpillWriter(dir, "conn", r.parts); err != nil {
		return err
	}
	r.rsyms = make(map[netip.Addr]int32)
	r.connRank = make(map[netip.Addr]int32)
	r.dnsRank = make(map[netip.Addr]int32)
	err = r.dns.each(func(d *trace.DNSRecord) error {
		r.observeDNS(d)
		return r.dnsW.writeDNS(d, r.parts)
	})
	if err != nil {
		return err
	}
	err = r.conns.each(func(c *trace.ConnRecord) error {
		r.observeConn(c)
		return r.connW.writeConn(c, r.parts)
	})
	if err != nil {
		return err
	}
	r.spilledRecords += int64(r.dns.n + r.conns.n)
	r.dns, r.conns = recordBlocks[trace.DNSRecord]{}, recordBlocks[trace.ConnRecord]{}
	r.retained = 0
	r.spilled = true
	return nil
}

// Retention blocks start at minRetainBlock records and double up to
// maxRetainBlock (about 1 MiB of DNS records), so a small stream stays
// small and a large one appends without ever copying a filled block.
const (
	minRetainBlock = 64
	maxRetainBlock = 8192
)

// recordBlocks retains one stream's records in arrival order.
type recordBlocks[T any] struct {
	blocks [][]T // only the last has unused capacity
	n      int
}

// push appends a copy of *v and returns the capacity of the block it
// had to open, or 0.
func (b *recordBlocks[T]) push(v *T) (opened int) {
	last := len(b.blocks) - 1
	if last < 0 || len(b.blocks[last]) == cap(b.blocks[last]) {
		opened = minRetainBlock
		if last >= 0 {
			opened = min(2*cap(b.blocks[last]), maxRetainBlock)
		}
		b.blocks = append(b.blocks, make([]T, 0, opened))
		last++
	}
	b.blocks[last] = append(b.blocks[last], *v)
	b.n++
	return opened
}

// slack is the unused capacity of the last block, in records.
func (b *recordBlocks[T]) slack() int {
	if len(b.blocks) == 0 {
		return 0
	}
	last := b.blocks[len(b.blocks)-1]
	return cap(last) - len(last)
}

// flatten returns the records as one exact-size slice (nil when there
// are none). The first call concatenates the blocks; the slice then
// stands as the only block, so later calls return it as is.
func (b *recordBlocks[T]) flatten() []T {
	if b.n == 0 {
		return nil
	}
	if len(b.blocks) == 1 && b.slack() == 0 {
		return b.blocks[0]
	}
	all := make([]T, 0, b.n)
	for _, blk := range b.blocks {
		all = append(all, blk...)
	}
	b.blocks = [][]T{all}
	return all
}

// each calls fn on every record in arrival order, stopping at the
// first error.
func (b *recordBlocks[T]) each(fn func(*T) error) error {
	for _, blk := range b.blocks {
		for i := range blk {
			if err := fn(&blk[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Budget charges: the real in-memory sizes of the retained types.
const (
	dnsRecordBytes  = int64(unsafe.Sizeof(trace.DNSRecord{}))
	answerBytes     = int64(unsafe.Sizeof(trace.Answer{}))
	connRecordBytes = int64(unsafe.Sizeof(trace.ConnRecord{}))
)

// retainedDNSBytes is the resident footprint of one DNS record for
// budget accounting: struct, query string, and answer backing.
func retainedDNSBytes(d *trace.DNSRecord) int64 {
	return dnsRecordBytes + int64(len(d.Query)) + answerBytes*int64(len(d.Answers))
}

// retainedConnBytes is the resident footprint of one connection record.
func retainedConnBytes() int64 { return connRecordBytes }

// collect classifies the spilled trace into an AnalysisShard. The
// producer loads one partition at a time (each holds every record of
// its clients, since partitioning hashes the client), the consumers
// classify per client, and the fold is commutative, so the shard — and
// everything finalized from it — is identical for every worker count.
func (r *streamRun) collect(ctx context.Context) (*AnalysisShard, error) {
	tr := r.opts.Trace
	sp := tr.StartPhase("classify-spill")
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

	sh := &AnalysisShard{
		opts:      r.opts,
		dnsTotal:  r.dnsTotal,
		connTotal: r.connTotal,
		failures:  r.failures,
		resolvers: append([]resolverStat(nil), r.resolvers...),
		clients:   make([]clientResult, 0, len(rank)),
	}
	var mu sync.Mutex

	// A job is one client of a loaded partition.
	type job struct {
		p *partition
		c *clientShard
	}
	workers := parallel.Workers(r.opts.Workers)
	produce := func(emit func(job) error) error {
		ld := partitionLoader{dir: r.spillDir, rsyms: r.rsyms}
		for p := 0; p < r.parts; p++ {
			part, err := ld.load(p, r.dnsW.counts[p], r.connW.counts[p])
			if err != nil {
				return err
			}
			for i := range part.shards {
				if err := emit(job{part, &part.shards[i]}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	consume := func(j job) error {
		p := j.p
		c := classifyClient(&r.opts, rank[j.c.client], p.dns, p.expiry, p.rsym, p.conns, j.c)
		mu.Lock()
		sh.clients = append(sh.clients, c)
		mu.Unlock()
		return nil
	}
	// Buffer a handful of clients so the producer reads the next
	// partition while consumers classify the previous one's tail.
	if err := parallel.Stream(ctx, r.opts.Workers, workers*2, produce, consume); err != nil {
		return nil, err
	}
	sp.SetItems(len(sh.clients))
	sp.End()
	return sh, nil
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
		Add(uint64(r.parts))
}
