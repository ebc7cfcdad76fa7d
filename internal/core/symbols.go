package core

// Parallel symbol-sidecar construction. The sidecar build — query-name
// interning, resolver numbering, TTL-expiry precomputation, and the
// per-resolver (count, min-duration) stats the threshold derivation
// needs — used to be a single serial pass over every DNS record, the
// pipeline's longest serial stage after ingest. Here the pass is
// chunked: each worker interns into a private table over a contiguous
// slice of the records, and a cheap merge (proportional to the number
// of distinct names, not records) renumbers the chunk-local symbols
// into global first-appearance order.
//
// Determinism is exact, not approximate: a chunk-local table's intern
// order is the chunk's first-appearance order, so re-interning the
// chunk tables in chunk order reproduces the global first-appearance
// numbering the serial pass assigns — the merged sidecar is
// bit-identical to the serial one at every worker count.

import (
	"context"
	"net/netip"
	"runtime/pprof"
	"time"

	"dnscontext/internal/parallel"
	"dnscontext/internal/trace"
)

// minParallelSymbols is the record count below which the chunked build's
// merge overhead outweighs the parallelism; smaller inputs take the
// serial pass regardless of the worker setting.
const minParallelSymbols = 1 << 15

// sidecars bundles the per-DNS-record symbol sidecar plus the fused
// per-resolver stats. It is exactly the precomputation AnalyzeContext
// needs before the threshold and classify phases, split out so the
// streaming ingest can build it concurrently with the connection scan
// and hand it to analyze ready-made.
type sidecars struct {
	names  *trace.SymbolTable // query-name symbols, first-appearance order
	qsym   []trace.Sym        // per record: query-name symbol
	rsym   []int32            // per record: resolver symbol
	expiry []time.Duration    // per record: precomputed ExpiresAt()
	// resolvers maps resolver symbols back to addresses in
	// first-appearance order, with each resolver's lookup count and
	// minimum observed duration — deriveThresholds' inputs, accumulated
	// in the same pass instead of a separate walk.
	resolvers []resolverStat
}

// addResolver assigns the next resolver symbol.
func (sc *sidecars) addResolver(addr netip.Addr) int32 {
	sc.resolvers = append(sc.resolvers, resolverStat{addr: addr})
	return int32(len(sc.resolvers) - 1)
}

// buildSidecars builds the sidecar bundle for dns. The result is a pure
// function of the record order — identical for every workers value. The
// only error is context cancellation.
func buildSidecars(ctx context.Context, workers int, dns []trace.DNSRecord) (*sidecars, error) {
	n := len(dns)
	sc := &sidecars{
		names:  trace.NewSymbolTable(),
		qsym:   make([]trace.Sym, n),
		rsym:   make([]int32, n),
		expiry: make([]time.Duration, n),
	}
	var err error
	// Label the build so profiles attribute intern/expiry samples to the
	// stage; chunk workers inherit the label.
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "symbols"), func(context.Context) {
		if w := parallel.Workers(workers); w > 1 && n >= minParallelSymbols {
			err = sc.buildParallel(ctx, workers, dns)
		} else {
			sc.buildSerial(dns)
		}
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// buildSerial is the reference single-pass build.
func (sc *sidecars) buildSerial(dns []trace.DNSRecord) {
	rsyms := make(map[netip.Addr]int32, 8) // a handful of resolver platforms
	for i := range dns {
		d := &dns[i]
		sc.qsym[i] = sc.names.Intern(d.Query)
		sc.expiry[i] = d.ExpiresAt()
		rs, ok := rsyms[d.Resolver]
		if !ok {
			rs = sc.addResolver(d.Resolver)
			rsyms[d.Resolver] = rs
		}
		sc.rsym[i] = rs
		sc.resolvers[rs].add(1, d.Duration())
	}
}

// symChunk is one worker's private intern state over a contiguous range
// of records.
type symChunk struct {
	names     *trace.SymbolTable
	resolvers []resolverStat
}

// buildParallel is the chunked build: a parallel local pass, a serial
// merge over the (small) chunk tables, and a parallel renumber pass.
func (sc *sidecars) buildParallel(ctx context.Context, workers int, dns []trace.DNSRecord) error {
	parts := parallel.Chunks(len(dns), parallel.Workers(workers))
	chunks := make([]symChunk, len(parts))

	// Local pass: intern into the chunk's private table (local symbols
	// land in qsym/rsym), compute expiries, and fuse the per-resolver
	// count/min stats. Disjoint ranges, no shared writes.
	err := parallel.ForEach(ctx, workers, len(parts), func(c int) error {
		rg := parts[c]
		ch := &chunks[c]
		ch.names = trace.NewSymbolTable()
		rsyms := make(map[netip.Addr]int32, 8)
		for i := rg.Lo; i < rg.Hi; i++ {
			d := &dns[i]
			sc.qsym[i] = ch.names.Intern(d.Query)
			sc.expiry[i] = d.ExpiresAt()
			rs, ok := rsyms[d.Resolver]
			if !ok {
				rs = int32(len(ch.resolvers))
				rsyms[d.Resolver] = rs
				ch.resolvers = append(ch.resolvers, resolverStat{addr: d.Resolver})
			}
			sc.rsym[i] = rs
			ch.resolvers[rs].add(1, d.Duration())
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Merge: re-intern each chunk table in chunk order. A chunk table's
	// order is its range's first-appearance order, so the global table
	// comes out in whole-input first-appearance order — the same
	// numbering the serial pass assigns. Cost is O(distinct names), not
	// O(records).
	qremap := make([][]trace.Sym, len(chunks))
	rremap := make([][]int32, len(chunks))
	grsyms := make(map[netip.Addr]int32, 8)
	for c := range chunks {
		ch := &chunks[c]
		qm := make([]trace.Sym, ch.names.Len())
		for j := range qm {
			qm[j] = sc.names.Intern(ch.names.Name(trace.Sym(j)))
		}
		qremap[c] = qm
		rm := make([]int32, len(ch.resolvers))
		for j := range ch.resolvers {
			cr := &ch.resolvers[j]
			g, ok := grsyms[cr.addr]
			if !ok {
				g = sc.addResolver(cr.addr)
				grsyms[cr.addr] = g
			}
			rm[j] = g
			sc.resolvers[g].add(cr.lookups, cr.minDur)
		}
		rremap[c] = rm
	}

	// Renumber pass: rewrite the chunk-local symbols in place through the
	// per-chunk remap tables. Disjoint ranges again.
	return parallel.ForEach(ctx, workers, len(parts), func(c int) error {
		rg := parts[c]
		qm, rm := qremap[c], rremap[c]
		for i := rg.Lo; i < rg.Hi; i++ {
			sc.qsym[i] = qm[sc.qsym[i]]
			sc.rsym[i] = rm[sc.rsym[i]]
		}
		return nil
	})
}
