package core

import (
	"sort"
	"time"

	"dnscontext/internal/stats"
)

// pairEnt is one candidate in a client index bucket: the DNS record's
// completion time and precomputed TTL expiry carried inline next to its
// client-local position. The pairing scan — binary search plus backward
// expiry sweep — reads only these entries, walking one contiguous
// bucket instead of chasing pointers into the (much larger, scattered)
// record array.
type pairEnt struct {
	ts     time.Duration
	expiry time.Duration
	idx    int32
}

// shardIndex is the DN-Hunter lookup structure for one client: it maps
// each answered address symbol to the client's DNS records (ascending
// by completion time) whose answers contain it. The client is implicit
// — every record indexed shares one — which is exactly what lets the
// pipeline shard the trace with no cross-client pairing candidates.
type shardIndex map[int32][]pairEnt

// buildIndex constructs the lookup structure over one client's DNS
// records: local lists the client's records as positions in st.dns,
// ascending, and each entry stores its position within local. A record
// enters each distinct answered address once, however often its answer
// section repeats the address, so a bucket counts records: records fill
// the buckets in order, so a repeat finds its own record last in the
// bucket, which keeps a record of n answers O(n), not O(n²).
//
// A counting pre-pass sizes every bucket (exactly, unless an answer
// section repeats an address): all buckets are carved out of one shared
// backing slice, so the fill pass appends within capacity and the
// grow-by-append reallocation churn of the naive construction
// disappears.
func buildIndex(st *recordStore, local []int32) shardIndex {
	total := 0
	// Distinct answered addresses are bounded by (and usually close to)
	// the client's record count.
	counts := make(map[int32]int32, len(local))
	for _, i := range local {
		for _, a := range st.answersOf(&st.dns[i]) {
			counts[a.addr]++
			total++
		}
	}
	backing := make([]pairEnt, total)
	idx := make(shardIndex, len(counts))
	off := int32(0)
	for addr, c := range counts {
		idx[addr] = backing[off : off : off+c]
		off += c
	}
	for j, i := range local {
		d := &st.dns[i]
		ent := pairEnt{ts: d.ts, expiry: d.expiry, idx: int32(j)}
		for _, a := range st.answersOf(d) {
			if b := idx[a.addr]; len(b) == 0 || b[len(b)-1].idx != ent.idx {
				idx[a.addr] = append(b, ent)
			}
		}
	}
	return idx
}

// pair finds the DN-Hunter pairing for one connection: the most recent
// non-expired DNS lookup by the connection's originator whose answers
// contain the destination address; if every candidate is expired, the
// most recent one. It returns the lookup's client-local position (-1
// when none qualifies) and the number of non-expired candidates (the §4
// ambiguity measure).
//
// rng is only consulted under PairRandom, which picks uniformly among
// the non-expired candidates.
//
// scratch is the caller-owned backing for the fresh-candidate scan; the
// (possibly grown) scratch is returned for reuse, so a client's pairing
// loop settles into zero allocations per connection.
func pair(policy PairingPolicy, idx shardIndex, conn *connRec, rng *stats.RNG, scratch []int32) (local int, candidates int, _ []int32) {
	recs := idx[conn.resp]
	if len(recs) == 0 {
		return -1, 0, scratch
	}
	// Binary search for the last record completing at or before the
	// connection start. The completion times ride in the bucket entries,
	// so the search never leaves the bucket's contiguous memory.
	hi := sort.Search(len(recs), func(i int) bool {
		return recs[i].ts > conn.ts
	})
	if hi == 0 {
		return -1, 0, scratch
	}
	cand := recs[:hi]

	// Count and locate non-expired candidates, scanning backwards
	// against the expiry carried in each entry.
	fresh := scratch[:0]
	for i := len(cand) - 1; i >= 0; i-- {
		if conn.ts < cand[i].expiry {
			fresh = append(fresh, cand[i].idx)
			continue
		}
		// Everything earlier with the same TTL profile is likelier
		// expired too, but mixed TTLs make that unsound; keep scanning.
	}
	if len(fresh) == 0 {
		// All expired: most recent.
		return int(cand[len(cand)-1].idx), 0, fresh
	}
	if policy == PairRandom && len(fresh) > 1 {
		return int(fresh[rng.Intn(len(fresh))]), len(fresh), fresh
	}
	// fresh[0] is the most recent (we appended backwards).
	return int(fresh[0]), len(fresh), fresh
}
