package core

import (
	"math/rand"
	"testing"
	"time"

	"dnscontext/internal/trace"
)

// periodicUseDataset builds a trace with one house using one name (TTL
// ttl) every period for n uses.
func periodicUseDataset(name string, ttl, period time.Duration, n int) *trace.Dataset {
	ds := &trace.Dataset{}
	for i := 0; i < n; i++ {
		ts := time.Duration(i) * period
		ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc, ts, 3*time.Millisecond, name, webIP, ttl))
		ds.Conns = append(ds.Conns, mkConn(houseA, webIP, ts+5*time.Millisecond, time.Second, 443))
	}
	return ds
}

func TestPolicyNeverMatchesStandard(t *testing.T) {
	ds := periodicUseDataset("a.com", 100*time.Second, time.Minute, 10)
	a := Analyze(ds, testOptions())
	rf := a.RefreshSimulation(10 * time.Second)
	std := a.SimulateCachePolicy(10*time.Second, PolicyNever)
	if std != rf.Standard {
		t.Fatalf("standard mismatch: %+v vs %+v", std, rf.Standard)
	}
	// Alternating hit/miss as in the hand analysis (TTL 100s, period 60s).
	if std.Hits != 5 || std.Misses != 5 {
		t.Fatalf("standard hits/misses %d/%d", std.Hits, std.Misses)
	}
}

func TestPolicyRefreshAllMatchesTable3Column(t *testing.T) {
	ds := periodicUseDataset("a.com", 100*time.Second, time.Minute, 10)
	a := Analyze(ds, testOptions())
	all := a.SimulateCachePolicy(10*time.Second, PolicyRefreshAll)
	if all.Misses != 1 || all.Hits != 9 {
		t.Fatalf("refresh-all hits/misses %d/%d", all.Hits, all.Misses)
	}
	// One initial fetch plus one refresh per 100 s over the ~9 min window.
	if all.Lookups < 5 || all.Lookups > 7 {
		t.Fatalf("refresh-all lookups %d", all.Lookups)
	}
}

func TestPolicyIdleBoundedStopsRefreshing(t *testing.T) {
	// Two bursts of use separated by a long quiet gap. An idle-bounded
	// policy must stop refreshing during the gap (missing once at the
	// second burst) but spend far fewer lookups than refresh-all.
	ds := &trace.Dataset{}
	ttl := 60 * time.Second
	addUse := func(ts time.Duration) {
		ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc, ts, 3*time.Millisecond, "a.com", webIP, ttl))
		ds.Conns = append(ds.Conns, mkConn(houseA, webIP, ts+5*time.Millisecond, time.Second, 443))
	}
	for i := 0; i < 5; i++ {
		addUse(time.Duration(i) * 30 * time.Second) // burst 1: 0..2min
	}
	for i := 0; i < 5; i++ {
		addUse(4*time.Hour + time.Duration(i)*30*time.Second) // burst 2
	}
	a := Analyze(ds, testOptions())

	bounded := a.SimulateCachePolicy(10*time.Second, PolicyIdleBounded(5*time.Minute))
	all := a.SimulateCachePolicy(10*time.Second, PolicyRefreshAll)

	if all.Misses != 1 {
		t.Fatalf("refresh-all misses %d", all.Misses)
	}
	if bounded.Misses != 2 {
		t.Fatalf("idle-bounded misses %d, want 2 (one per burst)", bounded.Misses)
	}
	// The 4-hour gap costs refresh-all ~240 refreshes; the bounded policy
	// must be an order of magnitude cheaper.
	if bounded.Lookups*10 > all.Lookups {
		t.Fatalf("idle-bounded lookups %d not ≪ refresh-all %d", bounded.Lookups, all.Lookups)
	}
	if bounded.HitRate < 0.75 {
		t.Fatalf("idle-bounded hit rate %.3f too low", bounded.HitRate)
	}
}

func TestPolicyMinUsesGatesRefresh(t *testing.T) {
	// A name used exactly once: a popularity-gated policy must not
	// refresh it at all.
	ds := periodicUseDataset("once.com", 30*time.Second, time.Hour, 1)
	// Extend the window so there is tail time to (wrongly) refresh in.
	ds.Conns = append(ds.Conns, mkConn(houseA, peerIP, 6*time.Hour, time.Second, 50000))
	a := Analyze(ds, testOptions())

	gated := a.SimulateCachePolicy(10*time.Second, PolicyPopular(3, 0))
	if gated.Lookups != 1 {
		t.Fatalf("gated policy spent %d lookups on a once-used name", gated.Lookups)
	}
	all := a.SimulateCachePolicy(10*time.Second, PolicyRefreshAll)
	if all.Lookups < 100 {
		t.Fatalf("refresh-all lookups %d suspiciously low (tail not charged?)", all.Lookups)
	}
}

func TestPolicyFloorRespected(t *testing.T) {
	ds := periodicUseDataset("short.com", 5*time.Second, time.Minute, 5)
	a := Analyze(ds, testOptions())
	for _, pol := range []RefreshPolicy{PolicyRefreshAll, PolicyIdleBounded(time.Hour)} {
		got := a.SimulateCachePolicy(10*time.Second, pol)
		std := a.SimulateCachePolicy(10*time.Second, PolicyNever)
		if got != std {
			t.Fatalf("%s refreshed a sub-floor TTL: %+v vs %+v", pol.Label, got, std)
		}
	}
}

func TestCompareRefreshPoliciesBracketsAndOrders(t *testing.T) {
	ds := periodicUseDataset("a.com", 100*time.Second, time.Minute, 20)
	a := Analyze(ds, testOptions())
	rows := a.CompareRefreshPolicies(10*time.Second,
		PolicyPopular(2, 10*time.Minute),
		PolicyIdleBounded(30*time.Minute),
	)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Policy.Label != "standard" || rows[len(rows)-1].Policy.Label != "refresh-all" {
		t.Fatalf("bracketing wrong: %s .. %s", rows[0].Policy.Label, rows[len(rows)-1].Policy.Label)
	}
	std, all := rows[0].Result, rows[len(rows)-1].Result
	if all.HitRate < std.HitRate {
		t.Fatal("refresh-all hit rate below standard")
	}
	for _, row := range rows[1 : len(rows)-1] {
		if row.Result.HitRate < std.HitRate-1e-9 || row.Result.HitRate > all.HitRate+1e-9 {
			t.Errorf("%s hit rate %.3f outside [standard, refresh-all]",
				row.Policy.Label, row.Result.HitRate)
		}
		if row.Result.Lookups > all.Lookups {
			t.Errorf("%s spends more lookups than refresh-all", row.Policy.Label)
		}
	}
}

func TestPolicyLabels(t *testing.T) {
	if PolicyIdleBounded(time.Minute).Label != "idle<=1m0s" {
		t.Fatalf("label %q", PolicyIdleBounded(time.Minute).Label)
	}
	if PolicyPopular(3, time.Hour).Label != "uses>=3,idle<=1h0m0s" {
		t.Fatalf("label %q", PolicyPopular(3, time.Hour).Label)
	}
}

// refreshesUntilStep is the step-by-step reference for refreshesUntil:
// it walks the entry's expiries one TTL at a time, as the simulation
// did before the closed form.
func refreshesUntilStep(pol RefreshPolicy, floor time.Duration, st *nameState, ttl, limit time.Duration) (count uint64) {
	if pol.Never || ttl <= floor || ttl <= 0 {
		return 0
	}
	if pol.MinUses > 0 && int(st.uses) < pol.MinUses {
		return 0
	}
	for st.expiresAt <= limit {
		if pol.MaxIdle > 0 && st.expiresAt-st.lastUse > pol.MaxIdle {
			return count
		}
		count++
		st.expiresAt += ttl
	}
	return count
}

// TestRefreshesUntilMatchesStepLoop is the closed form's differential
// test: over random expiries, TTLs, limits, last uses, idle bounds
// (MaxIdle 0 included), use gates and floors (sub-floor and zero TTLs
// included), and on exact boundaries where a bound lands on an expiry,
// the count and the advanced expiry must equal the step loop's.
func TestRefreshesUntilMatchesStepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	units := []time.Duration{time.Nanosecond, time.Millisecond, time.Second}
	pick := func(lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }
	for i := 0; i < 200000; i++ {
		u := units[rng.Intn(len(units))]
		exp := time.Duration(pick(0, 10000)) * u
		ttl := time.Duration(pick(0, 600)) * u
		st := nameState{
			expiresAt: exp,
			lastUse:   exp - time.Duration(pick(-100, 5000))*u,
			uses:      int32(pick(0, 6)),
		}
		limit := exp + time.Duration(pick(-200, 20000))*u
		pol := RefreshPolicy{MinUses: []int{0, 0, 1, 2, 5}[rng.Intn(5)], Never: rng.Intn(20) == 0}
		if rng.Intn(3) > 0 {
			pol.MaxIdle = time.Duration(pick(0, 6000)) * u
		}
		floor := []time.Duration{0, 10 * u, time.Duration(pick(0, 300)) * u}[rng.Intn(3)]
		if ttl > 0 && rng.Intn(4) == 0 {
			// Land a bound exactly on an expiry.
			k := time.Duration(pick(0, 50))
			if rng.Intn(2) == 0 {
				limit = exp + k*ttl
			} else if pol.MaxIdle > 0 {
				st.lastUse = exp + k*ttl - pol.MaxIdle
			}
		}
		want, got := st, st
		wantN := refreshesUntilStep(pol, floor, &want, ttl, limit)
		gotN := refreshesUntil(pol, floor, &got, ttl, limit)
		if gotN != wantN || got != want {
			t.Fatalf("case %d: pol=%+v floor=%v ttl=%v limit=%v state=%+v: closed form %d (expiry %v), step loop %d (expiry %v)",
				i, pol, floor, ttl, limit, st, gotN, got.expiresAt, wantN, want.expiresAt)
		}
	}
}
