package core

import (
	"fmt"
	"time"
)

// RefreshPolicy is a declarative rule for when a whole-house cache
// refreshes an expiring entry. The paper (§8) evaluates only the two
// extremes — never refresh, and refresh everything — and leaves the
// middle ground as an open question: "whether we can design ways to
// achieve close to the 96.6% cache hit rate ... while incurring costs
// that are commiserate with the standard cache". This type and
// SimulateCachePolicy explore that middle ground.
type RefreshPolicy struct {
	// Label names the policy in reports.
	Label string
	// Never disables refreshing entirely (the paper's standard cache).
	Never bool
	// MaxIdle stops refreshing an entry once it has gone unused for this
	// long. Zero means refresh forever (the paper's refresh-all).
	MaxIdle time.Duration
	// MinUses gates refreshing on demonstrated demand: an entry is only
	// refreshed once it has been used at least this many times in total.
	MinUses int
}

// The paper's two Table 3 policies, plus the middle-ground family.
var (
	// PolicyNever is the standard cache: fetch on demand only.
	PolicyNever = RefreshPolicy{Label: "standard", Never: true}
	// PolicyRefreshAll refreshes every expiring entry forever.
	PolicyRefreshAll = RefreshPolicy{Label: "refresh-all"}
)

// PolicyIdleBounded refreshes entries only while they have been used
// within maxIdle.
func PolicyIdleBounded(maxIdle time.Duration) RefreshPolicy {
	return RefreshPolicy{Label: fmt.Sprintf("idle<=%v", maxIdle), MaxIdle: maxIdle}
}

// PolicyPopular refreshes entries that have been used at least minUses
// times and not longer than maxIdle ago.
func PolicyPopular(minUses int, maxIdle time.Duration) RefreshPolicy {
	return RefreshPolicy{
		Label:   fmt.Sprintf("uses>=%d,idle<=%v", minUses, maxIdle),
		MinUses: minUses,
		MaxIdle: maxIdle,
	}
}

// SimulateCachePolicy replays the DNS-using connections through a
// per-house cache governed by pol, charging one lookup per demand miss
// and one per speculative refresh. Names with authoritative TTL at or
// below floor are never refreshed (the paper's logistical bound).
//
// Caches are per house and the shards are per house, so each house
// replays independently in the per-house fold; the per-house counters
// are summed in shard order.
func (a *Analysis) SimulateCachePolicy(floor time.Duration, pol RefreshPolicy) CachePolicy {
	f := a.fold(foldReq{secs: secRefresh, floor: floor, policies: []RefreshPolicy{pol}})
	return f.refresh.policy(0, f.window)
}

// cacheShardTally is one house's contribution to a cache simulation.
type cacheShardTally struct {
	lookups, hits, misses uint64
}

// refreshFold is a house's share of the refresh simulations: its
// DNS-using connections, and one cache tally per simulated policy.
// houses, set by the merge, counts the houses with DNS-using
// connections, which the per-house lookup rate divides by.
type refreshFold struct {
	conns, houses int
	tallies       []cacheShardTally
}

func (f *refreshFold) merge(o *refreshFold) {
	if o.conns > 0 {
		f.houses++
	}
	f.conns += o.conns
	for k := range o.tallies {
		f.tallies[k].lookups += o.tallies[k].lookups
		f.tallies[k].hits += o.tallies[k].hits
		f.tallies[k].misses += o.tallies[k].misses
	}
}

// policy is the outcome of the k-th simulated policy.
func (f *refreshFold) policy(k int, window time.Duration) CachePolicy {
	t := f.tallies[k]
	out := CachePolicy{Lookups: t.lookups, Hits: t.hits, Misses: t.misses}
	if total := out.Hits + out.Misses; total > 0 {
		out.HitRate = float64(out.Hits) / float64(total)
	}
	if f.houses > 0 && window > 0 {
		out.LookupsPerSecPerHouse = float64(out.Lookups) / window.Seconds() / float64(f.houses)
	}
	return out
}

// simulateShardCache replays one house's DNS-using connections through a
// cache governed by pol (see SimulateCachePolicy). Cache entries are
// scr's per-name states, indexed by query-name symbol, so the replay
// never hashes.
func (a *Analysis) simulateShardCache(shardID int, floor time.Duration, pol RefreshPolicy,
	authTTL []time.Duration, window time.Duration, scr *whatIfScratch) (out cacheShardTally) {
	conns, _ := a.shards.records(shardID)
	scr.begin()
	for _, ci := range conns {
		pc := &a.Paired[ci]
		if pc.Class == ClassN {
			continue
		}
		name := a.st.dns[pc.DNS].name
		ttl := authTTL[name]
		now := a.st.conns[ci].ts
		st := scr.entry(name)

		if st.alive && now >= st.expiresAt {
			// The entry expired before this use; see how long the policy
			// kept it alive.
			out.lookups += refreshesUntil(pol, floor, st, ttl, now)
			if now >= st.expiresAt {
				st.alive = false
			}
		}

		if st.alive && now < st.expiresAt {
			out.hits++
		} else {
			out.misses++
			out.lookups++
			st.alive = ttl > 0
			st.expiresAt = now + ttl
		}
		st.lastUse = now
		st.uses++
	}

	// Tail: entries still alive at the end of the window keep consuming
	// refresh lookups until the policy abandons them or the capture ends.
	for _, name := range scr.touched {
		if st := &scr.names[name]; st.alive {
			out.lookups += refreshesUntil(pol, floor, st, authTTL[name], window)
		}
	}
	return out
}

// refreshesUntil counts the refresh lookups pol charges an entry of
// authoritative TTL ttl that expires at st.expiresAt: one at each expiry
// st.expiresAt + k·ttl (k = 0, 1, ...) up to and including limit and,
// when pol.MaxIdle is set, up to and including st.lastUse + MaxIdle. It
// advances st.expiresAt past the counted refreshes. The count is
// closed-form: the last refresh is the largest k with k·ttl within
// both bounds, found by one integer division.
func refreshesUntil(pol RefreshPolicy, floor time.Duration, st *nameState, ttl, limit time.Duration) uint64 {
	if pol.Never || ttl <= floor || ttl <= 0 {
		return 0
	}
	if pol.MinUses > 0 && int(st.uses) < pol.MinUses {
		return 0
	}
	room := limit - st.expiresAt
	if pol.MaxIdle > 0 {
		room = min(room, pol.MaxIdle-(st.expiresAt-st.lastUse))
	}
	if room < 0 {
		return 0
	}
	n := room/ttl + 1
	st.expiresAt += n * ttl
	return uint64(n)
}

// refreshInputs derives the per-name authoritative TTL approximation
// (a slice indexed by query-name symbol) and the window length (shared
// by every refresh simulation). The inputs are computed once and
// cached; concurrent simulations share the result.
func (a *Analysis) refreshInputs() ([]time.Duration, time.Duration) {
	a.refreshOnce.Do(func() {
		st := a.st
		a.authTTL = make([]time.Duration, st.names.Len())
		for i := range st.dns {
			d := &st.dns[i]
			// expiry is ts + the smallest answer TTL.
			if t := d.expiry - d.ts; t > a.authTTL[d.name] {
				a.authTTL[d.name] = t
			}
			a.window = max(a.window, d.ts)
		}
		for i := range st.conns {
			a.window = max(a.window, st.conns[i].ts)
		}
	})
	return a.authTTL, a.window
}

// PolicyComparison is one row of the future-work exploration: a policy
// with its outcome.
type PolicyComparison struct {
	Policy RefreshPolicy
	Result CachePolicy
}

// CompareRefreshPolicies evaluates a set of refresh policies over the
// trace, bracketing them with the paper's two extremes. Every policy
// replays each house in the same per-house fold task, one after
// another on that worker's scratch; the rows come back in policy order.
func (a *Analysis) CompareRefreshPolicies(floor time.Duration, policies ...RefreshPolicy) []PolicyComparison {
	all := append([]RefreshPolicy{PolicyNever}, policies...)
	all = append(all, PolicyRefreshAll)
	f := a.fold(foldReq{secs: secRefresh, floor: floor, policies: all})
	out := make([]PolicyComparison, len(all))
	for i, pol := range all {
		out[i] = PolicyComparison{Policy: pol, Result: f.refresh.policy(i, f.window)}
	}
	return out
}
