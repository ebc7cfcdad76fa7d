package bulk

import (
	"context"
	"fmt"
	"io"
	"time"

	"dnscontext/internal/parallel"
	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// The simulated path. Determinism is the contract: the same (namespace
// seed, engine seed, feed, shard count, arrival rate) produces the same
// result for every query at ANY concurrency. The mechanism is sharding
// by name: query i arrives at virtual time i·gap, is routed to shard
// hash(name)%Shards, and each shard owns a fully independent resolver
// platform instance (its own cache partitions and RNG stream, seeded
// Seed+shardID) whose queries it processes in feed order. Workers
// parallelize ACROSS shards; within a shard execution is sequential, so
// the interleaving chosen by the scheduler can never reach the model.
// The shard count is part of the experiment definition (it decides which
// queries share a cache), the concurrency is not.

// SimConfig parameterizes the simulated backend.
type SimConfig struct {
	// Shards is the number of independent resolver instances (default
	// 64). Results depend on this value — it is the cache-sharing
	// topology — and not on Options.Concurrency.
	Shards int
	// Seed drives every shard's RNG (shard k uses Seed+k) and, with
	// ZoneConfig, the namespace build.
	Seed uint64
	// ArrivalQPS is the virtual query arrival rate; query i arrives at
	// virtual time i/ArrivalQPS (default 50000).
	ArrivalQPS float64
	// Platform selects the resolver platform profile to scan through
	// (default resolver.PlatformLocal).
	Platform resolver.PlatformID
	// ZoneNames sizes the synthetic namespace (default
	// zonedb.DefaultConfig().NumNames).
	ZoneNames int
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.ArrivalQPS <= 0 {
		c.ArrivalQPS = 50000
	}
	if c.ZoneNames <= 0 {
		c.ZoneNames = zonedb.DefaultConfig().NumNames
	}
	return c
}

// simShard is one independent slice of the resolver hierarchy plus the
// shard's in-flight coalescing window.
type simShard struct {
	rec *resolver.Recursive
	// inflight maps a (name, type) to its most recent wire exchange; a
	// later query whose virtual arrival falls inside the exchange's
	// window joins it instead of re-asking (see resolveOne).
	inflight map[Query]simWindow
}

// simWindow is one completed exchange's reusable span: its end in
// virtual time plus the answer every subscriber shares (answers are
// shared by reference — the resolver hands out fresh slices per lookup).
type simWindow struct {
	end      time.Duration
	answers  []trace.Answer
	rcode    uint8
	cache    bool
	attempts int
	tcp      bool
	servfail bool
}

// SimBackend is a sharded instance of the simulated resolver hierarchy,
// ready to absorb a bulk scan.
type SimBackend struct {
	cfg    SimConfig
	zones  *zonedb.DB
	shards []*simShard
	gap    time.Duration
	retry  resolver.RetryPolicy
}

// NewSimBackend builds the namespace and cfg.Shards independent platform
// instances. The same cfg always builds the same backend.
func NewSimBackend(cfg SimConfig) (*SimBackend, error) {
	cfg = cfg.withDefaults()
	zcfg := zonedb.DefaultConfig()
	zcfg.NumNames = cfg.ZoneNames
	zones, err := zonedb.New(zcfg, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	var prof resolver.PlatformProfile
	found := false
	for _, p := range resolver.DefaultProfiles() {
		if p.ID == cfg.Platform {
			prof, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("bulk: unknown platform %v", cfg.Platform)
	}
	auth := resolver.NewAuthority(zones)
	b := &SimBackend{
		cfg:   cfg,
		zones: zones,
		gap:   time.Duration(float64(time.Second) / cfg.ArrivalQPS),
	}
	for k := 0; k < cfg.Shards; k++ {
		b.shards = append(b.shards, &simShard{
			rec:      resolver.NewRecursive(prof, auth, stats.NewRNG(cfg.Seed+uint64(k)+1)),
			inflight: make(map[Query]simWindow),
		})
	}
	return b, nil
}

// Zones returns the namespace the backend serves (the synthetic feed
// samples from it).
func (b *SimBackend) Zones() *zonedb.DB { return b.zones }

// HitRate returns the mean shared-cache hit rate across shards.
func (b *SimBackend) HitRate() float64 {
	if len(b.shards) == 0 {
		return 0
	}
	var sum float64
	for _, sh := range b.shards {
		sum += sh.rec.HitRate()
	}
	return sum / float64(len(b.shards))
}

// simBatch is the engine's unit of streaming: queries are read from the
// source in fixed-size batches, sharded, resolved in parallel across
// shards, encoded, and written in feed order. Two batch buffers rotate
// through RunSim's pipeline, so memory stays bounded by twice the batch
// size while shard state (caches, coalescing windows) persists across
// batches.
const simBatch = 1 << 13

// simEncodeChunk is the number of consecutive lines one encoding task
// formats into one of a batch's line buffers.
const simEncodeChunk = 1 << 10

// simBatchBuf is one batch on its way through RunSim; every array is
// reused from batch to batch.
type simBatchBuf struct {
	base    uint64 // feed index of queries[0]
	queries []Query
	results []Result
	// items lists, per shard, the batch indices routed to it in feed
	// order; active lists the shards that have any.
	items  [][]int32
	active []int
	// lines holds the encoded results, one buffer per simEncodeChunk
	// consecutive indices; written in order they are the batch's stream.
	lines [][]byte
}

func newSimBatchBuf(shards int) *simBatchBuf {
	return &simBatchBuf{
		queries: make([]Query, 0, simBatch),
		results: make([]Result, simBatch),
		items:   make([][]int32, shards),
		lines:   make([][]byte, simBatch/simEncodeChunk),
	}
}

// fill reads the next batch, whose first query has feed index base, and
// routes each query to its shard by a stable hash of the name (ascending
// index within a shard ⇒ ascending virtual arrival). It returns the
// source's error; the queries read before it stay in the batch.
func (bb *simBatchBuf) fill(src Source, base uint64) error {
	bb.base = base
	bb.queries = bb.queries[:0]
	for len(bb.queries) < simBatch && src.Scan() {
		bb.queries = append(bb.queries, src.Query())
	}
	for _, k := range bb.active {
		bb.items[k] = bb.items[k][:0]
	}
	bb.active = bb.active[:0]
	for i := range bb.queries {
		k := int(fnv64a(bb.queries[i].Name) % uint64(len(bb.items)))
		if len(bb.items[k]) == 0 {
			bb.active = append(bb.active, k)
		}
		bb.items[k] = append(bb.items[k], int32(i))
	}
	return src.Err()
}

// resolve runs the batch's parallel phase: each shard resolves its
// queries in feed order, workers parallelizing across shards; then the
// lines are encoded, workers parallelizing across chunks of consecutive
// indices.
func (bb *simBatchBuf) resolve(ctx context.Context, b *SimBackend, workers int, rp resolver.RetryPolicy, noCoalesce bool) error {
	err := parallel.ForEach(ctx, workers, len(bb.active), func(a int) error {
		k := bb.active[a]
		sh := b.shards[k]
		for _, idx := range bb.items[k] {
			b.resolveOne(sh, bb.base+uint64(idx), &bb.queries[idx], rp, noCoalesce, &bb.results[idx])
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := len(bb.queries)
	return parallel.ForEach(ctx, workers, bb.chunks(), func(c int) error {
		line := bb.lines[c][:0]
		for i := c * simEncodeChunk; i < min((c+1)*simEncodeChunk, n); i++ {
			line = appendResult(line, &bb.results[i])
		}
		bb.lines[c] = line
		return nil
	})
}

func (bb *simBatchBuf) chunks() int {
	return (len(bb.queries) + simEncodeChunk - 1) / simEncodeChunk
}

// write folds the resolved batch into the metrics and a summary lane, and
// writes its lines, both in feed order.
func (bb *simBatchBuf) write(w io.Writer, met *engMetrics, sum *summarizer) error {
	rs := bb.results[:len(bb.queries)]
	lane := sum.newSink(len(rs))
	for i := range rs {
		met.observe(&rs[i])
		lane.observe(&rs[i])
	}
	lane.flush()
	for _, line := range bb.lines[:bb.chunks()] {
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// RunSim streams src through the simulated backend and returns the run
// summary. Results are written to opts.Output in feed order (the stream
// itself is byte-deterministic, not merely its sorted digest).
//
// The loop is a three-stage pipeline over two rotating batch buffers:
// while batch k resolves and encodes on the workers, the calling
// goroutine writes batch k−1 and then reads and shards batch k+1 into
// the buffer batch k−1 vacated. Shard state is touched only by the
// resolve stage, one batch at a time in feed order, so the pipeline
// cannot reach the results.
//
// A feed error ends the run once every line before it is answered; a
// cancelled ctx ends it at a batch boundary. Either way every answered
// line is written whole, and the partial summary comes back with the
// error. An output error returns no summary.
func RunSim(ctx context.Context, src Source, b *SimBackend, opts Options) (*Summary, error) {
	start := time.Now()
	workers := parallel.Workers(opts.Concurrency)
	retry := opts.retry()
	met := newEngMetrics(opts.Metrics)
	out := opts.Output
	if out == nil {
		out = io.Discard
	}
	sum := &summarizer{}

	cur, spare := newSimBatchBuf(len(b.shards)), newSimBatchBuf(len(b.shards))
	feedErr := cur.fill(src, 0)
	pending := false // spare holds a resolved batch not yet written
	var runErr error
	for len(cur.queries) > 0 {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		met.inflight.Set(int64(len(cur.queries)))
		resolved := make(chan error, 1)
		go func(bb *simBatchBuf) {
			resolved <- bb.resolve(ctx, b, workers, retry, opts.NoCoalesce)
		}(cur)
		var writeErr error
		if pending {
			writeErr = spare.write(out, met, sum)
		}
		if feedErr == nil && writeErr == nil {
			feedErr = spare.fill(src, cur.base+uint64(len(cur.queries)))
		} else {
			spare.queries = spare.queries[:0]
		}
		runErr = <-resolved
		met.inflight.Set(0)
		if writeErr != nil {
			return nil, writeErr
		}
		if runErr != nil {
			pending = false // spare was refilled; cur is incomplete
			break
		}
		cur, spare, pending = spare, cur, true
	}
	if pending {
		if err := spare.write(out, met, sum); err != nil {
			return nil, err
		}
	}
	skipped := 0
	if f, ok := src.(*Feed); ok {
		skipped = f.Stats().Skipped
	}
	s := sum.finish(time.Since(start), skipped)
	if runErr != nil {
		return s, runErr
	}
	return s, feedErr
}

// resolveOne resolves one query on its shard at virtual arrival time
// gi·gap. Coalescing: queries for the same (name, type) whose arrival
// falls inside the previous exchange's [start, end) window share that
// exchange — they are the queries that, on a real wire, would have found
// the exchange in flight. Subscribers inherit the leader's answer and
// are charged only the remaining wait (end − arrival); this is
// singleflight semantics replayed in virtual time, deterministic because
// same-name queries always land on the same shard in feed order.
func (b *SimBackend) resolveOne(sh *simShard, gi uint64, q *Query, rp resolver.RetryPolicy, noCoalesce bool, r *Result) {
	arrival := time.Duration(gi) * b.gap
	*r = Result{Index: gi, Name: q.Name, Type: q.Type}

	if !noCoalesce {
		if w, ok := sh.inflight[*q]; ok && arrival < w.end {
			r.Status = windowStatus(&w)
			r.RCode = w.rcode
			r.Duration = w.end - arrival
			r.Attempts = w.attempts
			r.Coalesced = true
			r.Cache = w.cache
			r.TCPFallback = w.tcp
			r.Answers = w.answers
			return
		}
	}

	res := sh.rec.LookupWith(arrival, q.Name, rp)
	r.RCode = res.RCode
	r.Duration = res.Duration
	r.Attempts = res.Attempts
	r.Cache = res.FromCache
	r.TCPFallback = res.TCPFallback
	r.Answers = res.Answers
	if res.ServFail {
		r.Status = StatusTimeout
	} else {
		r.Status = statusOfRCode(res.RCode)
	}
	if !noCoalesce {
		sh.inflight[*q] = simWindow{
			end:      arrival + res.Duration,
			answers:  res.Answers,
			rcode:    res.RCode,
			cache:    res.FromCache,
			attempts: res.Attempts,
			tcp:      res.TCPFallback,
			servfail: res.ServFail,
		}
	}
}

func windowStatus(w *simWindow) Status {
	if w.servfail {
		return StatusTimeout
	}
	return statusOfRCode(w.rcode)
}

// fnv64a is the stable shard hash (FNV-1a over the name bytes).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
