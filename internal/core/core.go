// Package core implements the paper's analysis pipeline: DN-Hunter pairing
// of connections to the DNS lookups they use, the blocking heuristic, the
// N/LC/P/SC/R classification of DNS information origin, the performance
// and per-resolver analyses, and the whole-house-cache and refresh
// what-if simulations. Everything consumes only the two trace datasets
// (dns.log / conn.log equivalents), exactly as the paper's passive
// vantage point allows.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dnscontext/internal/obs"
	"dnscontext/internal/parallel"
)

// Class is the DNS-information origin of a connection (Table 2).
type Class uint8

// The five classes of Table 2.
const (
	// ClassN uses no DNS information at all.
	ClassN Class = iota
	// ClassLC uses a record already in a local cache (previously used).
	ClassLC
	// ClassP benefits from a speculative (prefetched, never-used) lookup.
	ClassP
	// ClassSC blocks on a lookup served from the shared resolver's cache.
	ClassSC
	// ClassR blocks on a lookup requiring authoritative resolution.
	ClassR
	numClasses
)

// String returns the paper's symbol for the class.
func (c Class) String() string {
	switch c {
	case ClassN:
		return "N"
	case ClassLC:
		return "LC"
	case ClassP:
		return "P"
	case ClassSC:
		return "SC"
	case ClassR:
		return "R"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// PairingPolicy selects how ambiguous pairings are broken (§4).
type PairingPolicy uint8

// Pairing policies.
const (
	// PairMostRecent pairs with the most recent candidate (DN-Hunter).
	PairMostRecent PairingPolicy = iota
	// PairRandom pairs with a uniformly random non-expired candidate —
	// the paper's robustness check on centralized-hosting ambiguity.
	PairRandom
)

// Options parameterizes an analysis run. The defaults mirror the paper.
type Options struct {
	// BlockThreshold separates blocked from non-blocked connections
	// (paper: a conservative 100 ms; the observed knee is near 20 ms).
	BlockThreshold time.Duration
	// KneeThreshold is the visual knee reported alongside Figure 1.
	KneeThreshold time.Duration
	// SCRMinSamples caps the per-resolver sample gate for deriving SC/R
	// duration thresholds. The paper used 1000 lookups (of its 9.2M);
	// the analysis scales that proportion to the trace size (floor 50)
	// and never exceeds this cap.
	SCRMinSamples int
	// DefaultSCThreshold applies to unpopular resolvers (paper: 5 ms).
	DefaultSCThreshold time.Duration
	// Pairing selects the pairing policy.
	Pairing PairingPolicy
	// Seed drives the random pairing policy.
	Seed uint64
	// InsignificantAbs / InsignificantRel are §6's two independent
	// "insignificant DNS cost" criteria: absolute lookup time and
	// fractional contribution to the transaction.
	InsignificantAbs time.Duration
	InsignificantRel float64
	// Workers bounds the analysis worker pool. Zero (the default) uses
	// GOMAXPROCS. The result is bit-identical for every worker count:
	// work is sharded by originating client and each shard carries its
	// own RNG stream seeded from Seed and the shard ID. AnalyzeSource
	// also parses a streaming TSV source on this many goroutines (one
	// selects the serial scanner); the chunked scan replays records,
	// quarantine decisions, and errors in exact serial order.
	Workers int
	// Metrics, when non-nil, receives analyzer counters (connections per
	// class, shard count). Observation never feeds back into the pipeline,
	// so seeded runs are bit-identical with or without a registry.
	Metrics *obs.Registry
	// Trace, when non-nil, records the run's phase timeline and per-shard
	// work distribution. Same no-feedback guarantee as Metrics.
	Trace *obs.Tracer
	// Checkpoint, when non-nil with a Path, snapshots classify progress
	// so a killed run can resume bit-identically (see the Checkpoint
	// type in resume.go). AnalyzeContext and an unbudgeted
	// AnalyzeSource or CollectShard honour it; Analyze, with no error
	// to return, ignores it, and a run that spills past MemoryBudget
	// never snapshots. Like Metrics/Trace it never influences the result,
	// only whether work is recomputed or replayed.
	Checkpoint *Checkpoint
	// MemoryBudget bounds how many bytes of records AnalyzeSource keeps
	// resident before spilling to disk, counted in the record store's
	// compact form (store.go) with the table entries they add. Zero
	// (the default) means unlimited: the whole source is ingested in
	// memory and the full in-memory pipeline runs. A nonzero budget
	// never changes the analysis result, only whether it is computed
	// in core or out of core — and whether the returned Analysis
	// carries the records (see Analysis.Summary). Ignored by
	// Analyze/AnalyzeContext, which by definition already hold the
	// dataset.
	MemoryBudget int64
	// SpillDir is where AnalyzeSource puts spill partitions when the
	// memory budget trips. Empty means a fresh directory under the OS
	// temp dir, removed when the analysis finishes.
	SpillDir string
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		BlockThreshold:     100 * time.Millisecond,
		KneeThreshold:      20 * time.Millisecond,
		SCRMinSamples:      1000,
		DefaultSCThreshold: 5 * time.Millisecond,
		Pairing:            PairMostRecent,
		Seed:               1,
		InsignificantAbs:   20 * time.Millisecond,
		InsignificantRel:   0.01,
	}
}

// withDefaults fills zero-valued options with the paper's parameters, so
// a partially populated Options behaves sensibly.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BlockThreshold <= 0 {
		o.BlockThreshold = d.BlockThreshold
	}
	if o.KneeThreshold <= 0 {
		o.KneeThreshold = d.KneeThreshold
	}
	if o.SCRMinSamples <= 0 {
		o.SCRMinSamples = d.SCRMinSamples
	}
	if o.DefaultSCThreshold <= 0 {
		o.DefaultSCThreshold = d.DefaultSCThreshold
	}
	if o.InsignificantAbs <= 0 {
		o.InsignificantAbs = d.InsignificantAbs
	}
	if o.InsignificantRel <= 0 {
		o.InsignificantRel = d.InsignificantRel
	}
	return o
}

// PairedConn is one connection with its pairing and classification.
type PairedConn struct {
	// Conn indexes into the dataset's connection slice.
	Conn int
	// DNS indexes the paired DNS record, or -1 for unpaired connections.
	DNS int
	// Gap is conn start minus DNS completion (meaningless when DNS < 0).
	Gap time.Duration
	// FirstUse is true when this is the earliest connection paired with
	// the DNS record.
	FirstUse bool
	// UsedExpired is true when the connection started after the paired
	// record's TTL expiry.
	UsedExpired bool
	// Candidates is the number of non-expired records containing the
	// destination address at pairing time (§4's ambiguity measure).
	Candidates int
	// Class is the Table 2 classification.
	Class Class
}

// Analysis is the full per-connection view plus the index structures the
// table/figure computations need.
type Analysis struct {
	Opts Options
	// Paired has one entry per connection, in dataset (for a Source,
	// stream) order.
	Paired []PairedConn
	// DNSUsed marks DNS records used by at least one connection, in the
	// same order as the DNS records.
	DNSUsed []bool
	// Thresholds maps resolver address (as string) to the SC/R duration
	// threshold derived for it.
	Thresholds map[string]time.Duration

	// classCounts tallies connections per class, computed once during
	// finalize so Count and Fraction are O(1).
	classCounts [numClasses]int
	// st is every record of the trace in its resident form, converted
	// once at the entry point (store.go); nil when summary-grade.
	st *recordStore
	// shards partitions the store by originating client in
	// first-appearance order. Clients are houses (the monitor sees one
	// NAT'd address per residence), so the shards also drive the
	// per-house what-if simulations. Shard IDs seed the per-client RNG
	// streams, which is why the order must be deterministic.
	shards shardSet
	// refreshOnce guards authTTL/window, the lazily derived inputs shared
	// by every refresh-policy simulation (possibly running concurrently).
	// authTTL is indexed by query-name symbol.
	refreshOnce sync.Once
	authTTL     []time.Duration
	window      time.Duration
	// fp caches the dataset fingerprint checkpoints key on (resume.go).
	fp uint64

	// Summary-grade state. An Analysis reduced from streamed clients
	// (AnalyzeSource over a source bigger than the memory budget, or
	// AnalysisShard.Finalize) has no resident records: st and Paired
	// are nil, and the totals and failure stats computed during the
	// ingest or carried by the shard live here instead. The resident
	// path fills the totals too, so accessors shared by both grades
	// (Count/Fraction/Table2/Failures/...) read them uniformly.
	summary   bool
	dnsTotal  int
	connTotal int
	failures  *FailureStats
	// digest is the order-independent FNV fold over every per-connection
	// outcome (see shard.go): the totals' term, set when the analysis
	// is made, XORed with each client's term as foldClient finalizes it.
	digest uint64
}

// Summary reports whether the analysis is summary-grade: reduced from
// streamed shards without resident records. Classification totals
// (Count, Fraction, Table2, BlockedFraction, SharedCacheHitRate),
// Thresholds, Failures, Digest, and WriteSummary are available either
// way; the table/figure computations that walk the raw records (Report's
// full form, Figure1/2/3, PerHouse, WholeHouse, refresh simulations)
// need a full analysis.
func (a *Analysis) Summary() bool { return a.summary }

// TotalConns is the number of connections the analysis covers, resident
// or not.
func (a *Analysis) TotalConns() int { return a.connTotal }

// TotalDNS is the number of DNS transactions the analysis covers.
func (a *Analysis) TotalDNS() int { return a.dnsTotal }

// clientShard is one client's share of a record store: its address
// symbol and the windows of its shard set's position lists that hold
// its connection and DNS record positions, each ascending (= time
// order).
type clientShard struct {
	client       int32
	conn0, conn1 int32
	dns0, dns1   int32
}

// shardSet groups a store's records by client.
type shardSet struct {
	list       []clientShard
	conns, dns []int32 // record positions, client after client
}

// records returns client s's connection and DNS record positions.
func (set *shardSet) records(s int) (conns, dns []int32) {
	sh := &set.list[s]
	return set.conns[sh.conn0:sh.conn1], set.dns[sh.dns0:sh.dns1]
}

// buildShards groups a store's records by client: the whole trace in
// memory, one spill partition out of core. Pairing only ever matches a
// connection with lookups from the same originator, so the clients can
// be classified concurrently without locks. Clients come in
// first-appearance order — connection originators first, then clients
// that only issued lookups, so the shards partition both record arrays
// completely. Grouping runs on the worker pool (counting-pass sharding,
// see parallel.ShardByParallel) with the same order at every width; the
// only error is context cancellation.
func buildShards(ctx context.Context, workers int, st *recordStore) (shardSet, error) {
	connShards, err := parallel.ShardByParallel(ctx, workers, len(st.conns),
		func(i int) int32 { return st.conns[i].orig })
	if err != nil {
		return shardSet{}, err
	}
	dnsShards, err := parallel.ShardByParallel(ctx, workers, len(st.dns),
		func(i int) int32 { return st.dns[i].client })
	if err != nil {
		return shardSet{}, err
	}
	// dnsOf is each client's DNS shard, -1 for none or already placed.
	dnsOf := make([]int32, len(st.addrs))
	for i := range dnsOf {
		dnsOf[i] = -1
	}
	for p, s := range dnsShards {
		dnsOf[s.Key] = int32(p)
	}
	set := shardSet{
		list:  make([]clientShard, 0, len(connShards)+len(dnsShards)),
		conns: make([]int32, 0, len(st.conns)),
		dns:   make([]int32, 0, len(st.dns)),
	}
	add := func(client int32, conns, dns []int32) {
		set.list = append(set.list, clientShard{
			client: client,
			conn0:  int32(len(set.conns)), conn1: int32(len(set.conns) + len(conns)),
			dns0: int32(len(set.dns)), dns1: int32(len(set.dns) + len(dns)),
		})
		set.conns = append(set.conns, conns...)
		set.dns = append(set.dns, dns...)
	}
	for _, s := range connShards {
		var dns []int32
		if p := dnsOf[s.Key]; p >= 0 {
			dns, dnsOf[s.Key] = dnsShards[p].Items, -1
		}
		add(s.Key, s.Items, dns)
	}
	for _, s := range dnsShards {
		if dnsOf[s.Key] >= 0 {
			add(s.Key, nil, s.Items)
		}
	}
	return set, nil
}

// Count returns the number of connections in class c.
func (a *Analysis) Count(c Class) int {
	if c >= numClasses {
		return 0
	}
	return a.classCounts[c]
}

// Fraction returns the fraction of connections in class c.
func (a *Analysis) Fraction(c Class) float64 {
	if a.connTotal == 0 {
		return 0
	}
	return float64(a.Count(c)) / float64(a.connTotal)
}
