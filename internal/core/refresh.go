package core

import "time"

// CachePolicy summarizes one simulated cache's outcome (one column of
// Table 3).
type CachePolicy struct {
	Lookups               uint64
	Hits, Misses          uint64
	HitRate               float64
	LookupsPerSecPerHouse float64
}

// RefreshResult is Table 3: a standard whole-house cache versus one that
// speculatively refreshes entries as they expire.
type RefreshResult struct {
	// Conns is the number of DNS-using connections driving the simulation.
	Conns int
	// Houses and Window describe the normalization for the per-house rate.
	Houses int
	Window time.Duration
	// TTLFloor is the minimum authoritative TTL eligible for refreshing
	// (paper: 10 s).
	TTLFloor time.Duration

	Standard   CachePolicy
	RefreshAll CachePolicy
	// LookupMultiplier is RefreshAll.Lookups / Standard.Lookups (paper:
	// ~144x).
	LookupMultiplier float64
}

// RefreshSimulation replays the DNS-using connections through two
// trace-driven whole-house caches (§8, Table 3). Following the paper, the
// authoritative TTL of each name is approximated by the maximum TTL
// observed for it anywhere in the dataset, and names with authoritative
// TTL at or below floor are never refreshed. It is the two-extremes
// special case of SimulateCachePolicy.
func (a *Analysis) RefreshSimulation(floor time.Duration) RefreshResult {
	return a.fold(foldReq{secs: secRefresh, floor: floor, policies: table3Policies}).refreshResult(floor)
}

// table3Policies are Table 3's two columns, in refreshResult's order.
var table3Policies = []RefreshPolicy{PolicyNever, PolicyRefreshAll}

func (h *houseFold) refreshResult(floor time.Duration) RefreshResult {
	out := RefreshResult{
		TTLFloor:   floor,
		Conns:      h.refresh.conns,
		Houses:     h.refresh.houses,
		Window:     h.window,
		Standard:   h.refresh.policy(0, h.window),
		RefreshAll: h.refresh.policy(1, h.window),
	}
	if out.Standard.Lookups > 0 {
		out.LookupMultiplier = float64(out.RefreshAll.Lookups) / float64(out.Standard.Lookups)
	}
	return out
}
