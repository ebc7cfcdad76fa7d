package core

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"dnscontext/internal/checkpoint"
)

// AnalysisShard is a mergeable partial analysis: everything the
// classification of one slice of a trace produces, minus anything that
// depends on seeing the whole trace. A resident run classifies its
// clients into one and finalizes it, and checkpoints snapshot one; a
// budgeted AnalyzeSource finalizes each client as it is classified and
// keeps no shard. Independent processes can each CollectShard over
// their slice of a trace, serialize the shards (WriteShardFile), and
// reduce them with Merge + Finalize into the same *Analysis a single
// in-memory run would produce.
//
// What makes the merge exact is that a shard stores per-connection
// *pairing facts* (which lookup paired, the gap, first-use and expiry
// flags, the lookup's duration and resolver) rather than final classes.
// The SC/R split depends on per-resolver duration thresholds derived
// from whole-trace statistics, so a shard carries each resolver's
// (lookup count, minimum duration) — an associative, commutative
// summary — and Finalize re-derives the thresholds from the merged
// statistics before assigning classes. Merging is therefore associative
// and commutative: any grouping or ordering of the same shards
// finalizes to identical results.
//
// The one sharding requirement is that a client's records must not be
// split across shard inputs: pairing and first-use are per-client
// notions, and Merge refuses shards whose client sets overlap. (Under
// PairRandom, ambiguous pairings additionally draw from RNG streams
// seeded by process-local shard ranks, so cross-process merges are only
// guaranteed bit-identical under PairMostRecent, the default.)
type AnalysisShard struct {
	opts      Options
	dnsTotal  int64
	connTotal int64
	resolvers []resolverStat
	failures  FailureStats
	clients   []clientResult
}

// resolverStat is one resolver's associative duration summary: enough
// to re-derive its SC/R threshold after any number of merges.
type resolverStat struct {
	addr    netip.Addr
	lookups int64
	minDur  time.Duration
}

// add folds n lookups, the fastest of which took fastest, into the
// summary: one lookup as the symbol pass and the spill ingest see it,
// or another summary of the same resolver as a merge does.
func (r *resolverStat) add(n int64, fastest time.Duration) {
	if r.lookups == 0 || fastest < r.minDur {
		r.minDur = fastest
	}
	r.lookups += n
}

// clientResult is one client's classified slice: the number of DNS
// transactions it issued and one entry per connection, in start-time
// order.
type clientResult struct {
	client  netip.Addr
	nDNS    int32
	entries []connEntry
}

// connEntry is one connection's pairing facts, the shard analogue of
// PairedConn with dataset indices replaced by client-local ones.
type connEntry struct {
	// localDNS indexes the paired lookup within the client's own
	// DNS-record sequence (time order), or -1 when unpaired. Client-local
	// indexing is what keeps entries meaningful across processes that
	// never saw each other's datasets.
	localDNS    int32
	gap         time.Duration
	candidates  int32
	firstUse    bool
	usedExpired bool
	// lookupDur and res (an index into the shard's resolver table) defer
	// the SC/R decision to Finalize, where merged thresholds exist.
	lookupDur time.Duration
	res       int32
}

// ErrShardMismatch is matched (via errors.Is) when shards produced
// under different result-affecting options — or covering overlapping
// clients — refuse to merge.
var ErrShardMismatch = errors.New("analysis shards are incompatible")

// DNSTotal is the number of DNS transactions the shard covers.
func (s *AnalysisShard) DNSTotal() int { return int(s.dnsTotal) }

// ConnTotal is the number of connections the shard covers.
func (s *AnalysisShard) ConnTotal() int { return int(s.connTotal) }

// Clients is the number of distinct clients the shard covers.
func (s *AnalysisShard) Clients() int { return len(s.clients) }

// Merge combines two shards into a new one, leaving both inputs
// unchanged. It is associative and commutative; see the type comment
// for the exactness argument. Shards from runs with different
// result-affecting options, or with overlapping client sets, return an
// error wrapping ErrShardMismatch.
func (s *AnalysisShard) Merge(o *AnalysisShard) (*AnalysisShard, error) {
	if optionsKey(&s.opts) != optionsKey(&o.opts) {
		return nil, fmt.Errorf("%w: produced under different analysis options", ErrShardMismatch)
	}
	have := make(map[netip.Addr]bool, len(s.clients))
	for i := range s.clients {
		have[s.clients[i].client] = true
	}
	for i := range o.clients {
		if have[o.clients[i].client] {
			return nil, fmt.Errorf("%w: client %s appears in both shards (clients must not be split across shard inputs)",
				ErrShardMismatch, o.clients[i].client)
		}
	}

	m := &AnalysisShard{
		opts:      s.opts,
		dnsTotal:  s.dnsTotal + o.dnsTotal,
		connTotal: s.connTotal + o.connTotal,
		failures:  addFailures(s.failures, o.failures),
		resolvers: append([]resolverStat(nil), s.resolvers...),
	}
	// Remap o's resolver symbols into the merged table: each shard
	// numbered resolvers in its own first-appearance order, so the merge
	// rebinds by address and sums the associative stats.
	pos := make(map[netip.Addr]int32, len(m.resolvers))
	for i := range m.resolvers {
		pos[m.resolvers[i].addr] = int32(i)
	}
	remap := make([]int32, len(o.resolvers))
	for i := range o.resolvers {
		rs := &o.resolvers[i]
		p, ok := pos[rs.addr]
		if !ok {
			p = int32(len(m.resolvers))
			pos[rs.addr] = p
			m.resolvers = append(m.resolvers, resolverStat{addr: rs.addr})
		}
		m.resolvers[p].add(rs.lookups, rs.minDur)
		remap[i] = p
	}

	m.clients = append(m.clients, s.clients...)
	for i := range o.clients {
		c := o.clients[i]
		if needsRemap(c.entries, remap) {
			entries := append([]connEntry(nil), c.entries...)
			for j := range entries {
				if entries[j].res >= 0 {
					entries[j].res = remap[entries[j].res]
				}
			}
			c.entries = entries
		}
		m.clients = append(m.clients, c)
	}
	return m, nil
}

// needsRemap reports whether any entry's resolver symbol would change
// under remap, so Merge can share entry slices in the common case of
// identical resolver numbering.
func needsRemap(entries []connEntry, remap []int32) bool {
	for i := range entries {
		if r := entries[i].res; r >= 0 && remap[r] != r {
			return true
		}
	}
	return false
}

func addFailures(a, b FailureStats) FailureStats {
	return FailureStats{
		Lookups:      a.Lookups + b.Lookups,
		ServFails:    a.ServFails + b.ServFails,
		Retried:      a.Retried + b.Retried,
		TotalRetries: a.TotalRetries + b.TotalRetries,
		TCPFallbacks: a.TCPFallbacks + b.TCPFallbacks,
	}
}

// MergeShards folds any number of shards into one. At least one shard
// is required.
func MergeShards(shards ...*AnalysisShard) (*AnalysisShard, error) {
	if len(shards) == 0 {
		return nil, errors.New("dnscontext: no shards to merge")
	}
	m := shards[0]
	for _, s := range shards[1:] {
		var err error
		if m, err = m.Merge(s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Finalize reduces the shard to a summary-grade *Analysis: it
// re-derives the per-resolver SC/R thresholds from the merged resolver
// statistics and finalizes every client through the same path as an
// in-memory run. The result reports classification (Count/Fraction/
// Table2/BlockedFraction/SharedCacheHitRate), Thresholds, Failures,
// Digest, and WriteSummary exactly as the in-memory path would; see
// Analysis.Summary for what a summary analysis cannot do.
func (s *AnalysisShard) Finalize() *Analysis {
	a, thByRes := newSummary(s.opts, s.dnsTotal, s.connTotal, s.failures, s.resolvers)
	a.finalize(s.clients, thByRes)
	return a
}

// newSummary starts a summary-grade Analysis of a trace from its
// whole-trace summaries: the totals, the failure stats, and the
// resolver statistics the SC/R thresholds derive from. It returns the
// thresholds indexed like resolvers too, for foldClient.
func newSummary(opts Options, dnsTotal, connTotal int64, failures FailureStats, resolvers []resolverStat) (*Analysis, []time.Duration) {
	a := &Analysis{
		Opts:      opts,
		summary:   true,
		dnsTotal:  int(dnsTotal),
		connTotal: int(connTotal),
		failures:  &failures,
		digest:    totalsDigest(int(connTotal), int(dnsTotal)),
	}
	var thByRes []time.Duration
	a.Thresholds, thByRes = deriveThresholds(&opts, dnsTotal, resolvers)
	return a, thByRes
}

// finalize is the reduce of a resident run and of Finalize: it folds
// every classified client into the analysis (see foldClient). A
// resident analysis, whose client i is a.shards.list[i], also gets
// Paired and DNSUsed.
func (a *Analysis) finalize(clients []clientResult, thByRes []time.Duration) {
	for i := range clients {
		var conns, dns []int32
		if a.st != nil {
			conns, dns = a.shards.records(i)
		}
		a.digest ^= a.foldClient(&clients[i], thByRes, &a.classCounts, conns, dns)
	}
}

// foldClient finalizes one classified client: each connection gets its
// Table 2 class from the stored pairing facts under thByRes (indexed
// like the run's resolver table), the classes are tallied into counts,
// and the client's digest term is returned. Both fold in any order, so
// a summary-grade run may fold its clients concurrently, each into
// counts of its own. Given the client's connection and DNS record
// positions (a resident run), foldClient also fills the client's Paired
// and DNSUsed entries, with client-local lookup positions mapped back
// to record indices.
func (a *Analysis) foldClient(c *clientResult, thByRes []time.Duration, counts *[numClasses]int, conns, dns []int32) uint64 {
	h := newDigest()
	h.addr(c.client)
	h.u64(uint64(c.nDNS))
	for j := range c.entries {
		e := &c.entries[j]
		class := entryClass(e, &a.Opts, thByRes)
		counts[class]++
		h.entry(e, class)
		if conns == nil {
			continue
		}
		ci := conns[j]
		pc := &a.Paired[ci]
		*pc = PairedConn{Conn: int(ci), DNS: -1, Class: class}
		if e.localDNS >= 0 {
			di := dns[e.localDNS]
			pc.DNS, pc.Gap, pc.Candidates = int(di), e.gap, int(e.candidates)
			pc.FirstUse, pc.UsedExpired = e.firstUse, e.usedExpired
			a.DNSUsed[di] = true
		}
	}
	return uint64(h)
}

// entryClass derives the Table 2 class from one entry's pairing facts
// and the finalized thresholds.
func entryClass(e *connEntry, opts *Options, thByRes []time.Duration) Class {
	if e.localDNS < 0 {
		return ClassN
	}
	if e.gap > opts.BlockThreshold {
		// Record was on hand: local cache or prefetch.
		if e.firstUse {
			return ClassP
		}
		return ClassLC
	}
	// Blocked on the lookup: shared cache vs full resolution, decided by
	// the per-resolver duration threshold.
	if e.lookupDur <= thByRes[e.res] {
		return ClassSC
	}
	return ClassR
}

// Digest is an order-independent fingerprint of every per-connection
// outcome (pairing, gap, flags, class) plus the totals: per-client FNV
// hashes XOR-folded, so it is identical for every worker count,
// client order, and shard grouping. Equal digests across the in-memory,
// streaming, and merged paths are the parity tests' success criterion.
func (a *Analysis) Digest() uint64 { return a.digest }

// totalsDigest is the digest's term for the trace's totals, onto which
// every client's term is XOR-folded.
func totalsDigest(connTotal, dnsTotal int) uint64 {
	h := newDigest()
	h.u64(uint64(connTotal))
	h.u64(uint64(dnsTotal))
	return uint64(h)
}

// digestHash is an inline FNV-64a accumulator.
type digestHash uint64

func newDigest() digestHash { return 0xcbf29ce484222325 }

func (h *digestHash) bytes(b []byte) {
	v := uint64(*h)
	for _, c := range b {
		v ^= uint64(c)
		v *= 0x100000001b3
	}
	*h = digestHash(v)
}

// u64 folds v's eight bytes, least significant first: the bytes of its
// little-endian encoding.
func (h *digestHash) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 0x100000001b3
		v >>= 8
	}
	*h = digestHash(x)
}

func (h *digestHash) addr(a netip.Addr) {
	b := a.As16()
	h.bytes(b[:])
}

// entry folds one connection outcome. Resolver symbols are shard-local
// and therefore excluded; the class (which the resolver's threshold
// decided) stands in for them.
func (h *digestHash) entry(e *connEntry, class Class) {
	h.u64(uint64(uint32(e.localDNS)))
	h.u64(uint64(e.gap))
	h.u64(uint64(uint32(e.candidates)))
	var flags uint64
	if e.firstUse {
		flags |= 1
	}
	if e.usedExpired {
		flags |= 2
	}
	h.u64(flags)
	h.u64(uint64(class))
}

// shardFileVersion is the on-disk format version of serialized shards,
// carried in the same checkpoint envelope (magic, CRC, atomic rename)
// analyzer snapshots use.
const shardFileVersion = 1

// WriteShardFile atomically serializes the shard to path. The encoding
// is canonical — resolvers and clients are written in address order —
// so shards that merge to the same state serialize to the same bytes
// regardless of the order their inputs arrived in.
func WriteShardFile(path string, s *AnalysisShard) error {
	return checkpoint.Save(path, shardFileVersion, s.encode())
}

// ReadShardFile loads a shard written by WriteShardFile.
func ReadShardFile(path string) (*AnalysisShard, error) {
	payload, err := checkpoint.Load(path, shardFileVersion)
	if err != nil {
		return nil, err
	}
	return decodeShardPayload(payload)
}

// encode serializes the shard. Layout (little-endian):
//
//	options: 8 result-affecting fields (the optionsKey inputs)
//	i64 dnsTotal, i64 connTotal
//	failures: 5 x i64
//	u32 nResolvers; per resolver (addr order): addr, i64 lookups, i64 min
//	u32 nClients; per client (addr order): addr, i32 nDNS, u32 nEntries;
//	  per entry: i32 localDNS, i64 gap, i32 candidates, u8 flags,
//	  i64 lookupDur, i32 res
//
// where addr is u8 length + raw bytes, and entry res symbols are
// rewritten to the address-ordered resolver numbering.
func (s *AnalysisShard) encode() []byte {
	entries := 0
	for i := range s.clients {
		entries += len(s.clients[i].entries)
	}
	b := make([]byte, 0, 160+22*len(s.resolvers)+26*len(s.clients)+entryBytes*entries)
	o := &s.opts
	b = appendI64(b, int64(o.BlockThreshold))
	b = appendI64(b, int64(o.KneeThreshold))
	b = appendI64(b, int64(o.SCRMinSamples))
	b = appendI64(b, int64(o.DefaultSCThreshold))
	b = append(b, uint8(o.Pairing))
	b = appendI64(b, int64(o.Seed))
	b = appendI64(b, int64(o.InsignificantAbs))
	b = appendI64(b, int64(math.Float64bits(o.InsignificantRel)))

	b = appendI64(b, s.dnsTotal)
	b = appendI64(b, s.connTotal)
	f := &s.failures
	for _, v := range []int{f.Lookups, f.ServFails, f.Retried, f.TotalRetries, f.TCPFallbacks} {
		b = appendI64(b, int64(v))
	}

	// Canonical resolver order, with a remap from the in-memory
	// first-appearance numbering.
	order := make([]int32, len(s.resolvers))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return s.resolvers[order[i]].addr.Compare(s.resolvers[order[j]].addr) < 0
	})
	remap := make([]int32, len(s.resolvers))
	for canon, orig := range order {
		remap[orig] = int32(canon)
	}
	b = appendU32(b, uint32(len(s.resolvers)))
	for _, orig := range order {
		rs := &s.resolvers[orig]
		b = appendAddr(b, rs.addr)
		b = appendI64(b, rs.lookups)
		b = appendI64(b, int64(rs.minDur))
	}

	corder := make([]int32, len(s.clients))
	for i := range corder {
		corder[i] = int32(i)
	}
	sort.Slice(corder, func(i, j int) bool {
		return s.clients[corder[i]].client.Compare(s.clients[corder[j]].client) < 0
	})
	b = appendU32(b, uint32(len(s.clients)))
	for _, ci := range corder {
		c := &s.clients[ci]
		b = appendAddr(b, c.client)
		b = appendU32(b, uint32(c.nDNS))
		b = appendU32(b, uint32(len(c.entries)))
		for j := range c.entries {
			e := &c.entries[j]
			res := e.res
			if res >= 0 {
				res = remap[res]
			}
			var flags uint8
			if e.firstUse {
				flags |= 1
			}
			if e.usedExpired {
				flags |= 2
			}
			b = appendU32(b, uint32(e.localDNS))
			b = appendI64(b, int64(e.gap))
			b = appendU32(b, uint32(e.candidates))
			b = append(b, flags)
			b = appendI64(b, int64(e.lookupDur))
			b = appendU32(b, uint32(res))
		}
	}
	return b
}

// The fewest bytes a resolver, a client header and an entry encode to
// (an address takes at least its length byte). They bound every count
// a payload claims by the bytes it has left, so a corrupt count fails
// decoding instead of sizing an allocation.
const (
	minResolverBytes = 1 + 8 + 8
	minClientBytes   = 1 + 4 + 4
	entryBytes       = 4 + 8 + 4 + 1 + 8 + 4
)

// count reads a u32 element count and fails unless the bytes left can
// hold that many elements of at least size bytes each.
func (f *frameReader) count(size int) int {
	n := int(f.u32())
	if f.err == nil && n > len(f.b)/size {
		f.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(f.b)))
	}
	if f.err != nil {
		return 0
	}
	return n
}

// decodeShardPayload is the inverse of encode. It trusts nothing in the
// payload: counts are bounded by the bytes left, resolvers and clients
// must come in strictly ascending address order (so none is listed
// twice), and a paired entry must name a lookup within its client's
// count and a resolver within the table. Every shard it returns
// finalizes, merges and re-encodes without panicking.
func decodeShardPayload(payload []byte) (*AnalysisShard, error) {
	f := frameReader{b: payload}
	s := &AnalysisShard{}
	o := &s.opts
	o.BlockThreshold = time.Duration(f.i64())
	o.KneeThreshold = time.Duration(f.i64())
	o.SCRMinSamples = int(f.i64())
	o.DefaultSCThreshold = time.Duration(f.i64())
	o.Pairing = PairingPolicy(f.u8())
	o.Seed = uint64(f.i64())
	o.InsignificantAbs = time.Duration(f.i64())
	o.InsignificantRel = math.Float64frombits(uint64(f.i64()))
	s.dnsTotal, s.connTotal = f.i64(), f.i64()
	fs := &s.failures
	for _, v := range []*int{&fs.Lookups, &fs.ServFails, &fs.Retried, &fs.TotalRetries, &fs.TCPFallbacks} {
		*v = int(f.i64())
	}

	nRes := f.count(minResolverBytes)
	s.resolvers = make([]resolverStat, nRes)
	for i := 0; i < nRes && f.err == nil; i++ {
		rs := &s.resolvers[i]
		rs.addr = f.addr()
		rs.lookups = f.i64()
		rs.minDur = time.Duration(f.i64())
		if i > 0 && rs.addr.Compare(s.resolvers[i-1].addr) <= 0 {
			f.fail(fmt.Errorf("resolver %v listed twice or out of order", rs.addr))
		}
	}
	nClients := f.count(minClientBytes)
	s.clients = make([]clientResult, nClients)
	for i := 0; i < nClients && f.err == nil; i++ {
		c := &s.clients[i]
		c.client = f.addr()
		c.nDNS = int32(f.u32())
		n := f.count(entryBytes)
		switch {
		case f.err != nil:
		case i > 0 && c.client.Compare(s.clients[i-1].client) <= 0:
			f.fail(fmt.Errorf("client %v listed twice or out of order", c.client))
		case c.nDNS < 0 || int64(n) > s.connTotal:
			f.fail(fmt.Errorf("client %v claims %d lookups and %d of %d connections", c.client, c.nDNS, n, s.connTotal))
		case n > 0:
			c.entries = make([]connEntry, n)
		}
		for j := range c.entries {
			e := &c.entries[j]
			e.localDNS = int32(f.u32())
			e.gap = time.Duration(f.i64())
			e.candidates = int32(f.u32())
			flags := f.u8()
			e.lookupDur = time.Duration(f.i64())
			e.res = int32(f.u32())
			e.firstUse, e.usedExpired = flags&1 != 0, flags&2 != 0
			if e.localDNS < -1 || e.localDNS >= c.nDNS {
				f.fail(fmt.Errorf("client %v: entry %d pairs lookup %d of %d", c.client, j, e.localDNS, c.nDNS))
			} else if e.res >= int32(nRes) || (e.localDNS >= 0 && e.res < 0) {
				f.fail(fmt.Errorf("client %v: entry %d: resolver symbol %d out of range", c.client, j, e.res))
			}
			if f.err != nil {
				break
			}
		}
	}
	if f.err != nil {
		return nil, fmt.Errorf("dnscontext: shard file: %w", f.err)
	}
	if len(f.b) != 0 {
		return nil, fmt.Errorf("dnscontext: shard file: %d trailing bytes", len(f.b))
	}
	return s, nil
}
