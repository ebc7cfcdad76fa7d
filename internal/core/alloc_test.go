package core

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// Allocation budgets (ISSUE 5) for the classify hot path: the pairing
// scan must be allocation-free on its common paths, and the per-shard
// classify loop must cost a small per-shard constant (its index maps),
// not a per-connection toll.

// allocAnalysis builds one analyzed trace for the budget tests.
func allocAnalysis(t *testing.T) *Analysis {
	t.Helper()
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	return Analyze(determinismTrace(t), opts)
}

// TestPairAllocFree gates pair's no-candidate and single-candidate
// paths at exactly zero allocations per call (with warmed scratch).
func TestPairAllocFree(t *testing.T) {
	a := allocAnalysis(t)

	// Find a shard with connections and build its index once.
	st := a.st
	var conns, dns []int32
	shardID := -1
	for s := range a.shards.list {
		if conns, dns = a.shards.records(s); len(conns) > 0 && len(dns) > 0 {
			shardID = s
			break
		}
	}
	if shardID < 0 {
		t.Fatal("no shard with both conns and dns")
	}
	idx := buildIndex(st, dns)
	rng := stats.NewRNG(a.Opts.Seed + uint64(shardID))
	scratch := make([]int32, 0, 64)

	// No-candidate path: an address symbol no DNS record ever answered.
	noMatch := st.conns[conns[0]]
	noMatch.resp = int32(len(st.addrs))
	if _, ok := idx[noMatch.resp]; ok {
		t.Fatal("probe address unexpectedly indexed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		dns, cand, s := pair(a.Opts.Pairing, idx, &noMatch, rng, scratch)
		scratch = s
		if dns != -1 || cand != 0 {
			t.Fatalf("no-candidate pair = (%d, %d)", dns, cand)
		}
	})
	if allocs != 0 {
		t.Fatalf("no-candidate pair allocates %.1f per call; budget is 0", allocs)
	}

	// Single-candidate path: a connection whose destination resolves to
	// a one-entry bucket.
	var single connRec
	found := false
	for _, ci := range conns {
		conn := st.conns[ci]
		if recs := idx[conn.resp]; len(recs) == 1 && recs[0].ts <= conn.ts {
			single, found = conn, true
			break
		}
	}
	if !found {
		t.Skip("trace has no single-candidate connection in the probed shard")
	}
	allocs = testing.AllocsPerRun(100, func() {
		dns, _, s := pair(a.Opts.Pairing, idx, &single, rng, scratch)
		scratch = s
		if dns < 0 {
			t.Fatal("single-candidate pair found nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("single-candidate pair allocates %.1f per call; budget is 0", allocs)
	}

	// General path with warmed scratch: still allocation-free.
	allocs = testing.AllocsPerRun(20, func() {
		for _, ci := range conns {
			_, _, s := pair(a.Opts.Pairing, idx, &st.conns[ci], rng, scratch)
			scratch = s
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed pairing loop allocates %.1f per pass; budget is 0", allocs)
	}
}

// TestClassifyShardAllocBudget gates the classify inner loop: one
// shard's pair+classify pass may allocate its per-shard index (a small
// number of maps and one backing array) but nothing per connection.
func TestClassifyShardAllocBudget(t *testing.T) {
	a := allocAnalysis(t)
	// Pick the busiest shard so per-connection costs dominate fixed ones.
	best, bestConns := -1, 0
	for s := range a.shards.list {
		if conns, _ := a.shards.records(s); len(conns) > bestConns {
			best, bestConns = s, len(conns)
		}
	}
	if best < 0 || bestConns < 100 {
		t.Fatalf("no busy shard (best has %d conns)", bestConns)
	}
	perRun := testing.AllocsPerRun(10, func() {
		classifyClient(&a.Opts, best, a.st, &a.shards, best)
	})
	// Index construction allocates roughly one bucket-map entry per
	// distinct answered address plus the backing array; budget that as
	// 0.5 per connection, far below the old one-plus per connection.
	if budget := 64 + 0.5*float64(bestConns); perRun > budget {
		t.Fatalf("classifyClient allocates %.0f per pass over %d conns; budget is %.0f",
			perRun, bestConns, budget)
	}
}

// reloadTrace is a time-ordered trace of n lookups and n connections
// spread over 256 clients, cycling through a bounded set of names and
// addresses the way a real trace does.
func reloadTrace(n int) *trace.Dataset {
	ds := &trace.Dataset{}
	for i := 0; i < n; i++ {
		client := netip.AddrFrom4([4]byte{10, 1, byte(i % 256 / 16), byte(i % 16)})
		server := netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 64)})
		ts := time.Duration(i) * time.Millisecond
		ds.DNS = append(ds.DNS, trace.DNSRecord{
			QueryTS: ts - time.Millisecond, TS: ts, Client: client,
			Resolver: netip.AddrFrom4([4]byte{198, 51, 100, byte(i % 4)}),
			ID:       uint16(i), Query: fmt.Sprintf("host%d.example.com", i%32), QType: 1,
			Answers: []trace.Answer{{Addr: server, TTL: time.Minute}, {Addr: server.Next(), TTL: time.Minute}},
		})
		ds.Conns = append(ds.Conns, trace.ConnRecord{
			TS: ts, Duration: time.Second, Proto: trace.TCP, Orig: client, OrigPort: uint16(40000 + i%1000),
			Resp: server, RespPort: 443, OrigBytes: int64(i), RespBytes: int64(10 * i),
		})
	}
	return ds
}

// TestPartitionReloadAllocBudget gates the spill reload: reading every
// partition back and grouping it by client may cost a fixed setup per
// partition (files, record and answer arrays, address and name tables,
// and the names themselves) but at most 0.05 allocations per spilled
// record beyond it, where per-field decoding and per-client appends
// cost several.
func TestPartitionReloadAllocBudget(t *testing.T) {
	ds := reloadTrace(20000)
	opts := DefaultOptions().withDefaults()
	opts.MemoryBudget = 1 // spill from the first record
	run := &streamRun{opts: opts}
	defer run.cleanup()
	if err := run.ingest(context.Background(), trace.NewDatasetSource(ds)); err != nil {
		t.Fatal(err)
	}
	if !run.spilled {
		t.Fatal("budget never tripped")
	}
	loaded := 0
	perRun := testing.AllocsPerRun(5, func() {
		ld := partitionLoader{dir: run.spillDir, resolvers: run.resolvers}
		loaded = 0
		for p := 0; p < spillParts; p++ {
			pt, err := ld.load(p, run.dnsW.counts[p], run.connW.counts[p])
			if err != nil {
				t.Fatal(err)
			}
			loaded += len(pt.shards.conns) + len(pt.shards.dns)
		}
	})
	if int64(loaded) != run.spilledRecords {
		t.Fatalf("reload yields %d records, %d were spilled", loaded, run.spilledRecords)
	}
	if budget := 64*float64(spillParts) + 0.05*float64(loaded); perRun > budget {
		t.Fatalf("reloading %d partitions allocates %.0f for %d records; budget is %.0f (64/partition + 0.05/record)",
			spillParts, perRun, loaded, budget)
	}
}
