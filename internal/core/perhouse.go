package core

import (
	"net/netip"

	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

// HouseSummary aggregates one residence's traffic: its connection class
// mix and its resolver-platform usage. The paper's monitor saw exactly
// this granularity (NAT hides devices), and §3's observations — e.g.
// "roughly 16% of the houses only use the ISP's resolvers" — are
// per-house statements.
type HouseSummary struct {
	House int
	Addr  netip.Addr
	// Conns / DNS are the house's record counts.
	Conns int
	DNS   int
	// ClassCounts indexes by Class.
	ClassCounts [numClasses]int
	// PlatformLookups counts wire lookups per resolver platform.
	PlatformLookups map[resolver.PlatformID]int
}

// BlockedFraction is the house's share of connections awaiting DNS.
func (h *HouseSummary) BlockedFraction() float64 {
	if h.Conns == 0 {
		return 0
	}
	return float64(h.ClassCounts[ClassSC]+h.ClassCounts[ClassR]) / float64(h.Conns)
}

// UsesOnlyLocal reports whether every lookup from the house went to the
// local ISP resolvers.
func (h *HouseSummary) UsesOnlyLocal() bool {
	for id, n := range h.PlatformLookups {
		if id != resolver.PlatformLocal && n > 0 {
			return false
		}
	}
	return h.PlatformLookups[resolver.PlatformLocal] > 0
}

// PerHouse computes per-house summaries, ordered by house index and,
// among clients with the same index (HouseOf numbers only 10/8
// addresses, so every other client is house -1), by address.
func (a *Analysis) PerHouse(profiles []resolver.PlatformProfile) []HouseSummary {
	return a.fold(foldReq{secs: secPerHouse, profiles: profiles}).perHouse
}

// houseSummary is the HouseSummary of the client at addr with the given
// record counts, per-class connection counts and per-platform lookup
// counts.
func houseSummary(addr netip.Addr, conns, dns int, classes [numClasses]int, plats []platformFold, ids []resolver.PlatformID) HouseSummary {
	h := HouseSummary{
		House:           trace.HouseOf(addr),
		Addr:            addr,
		Conns:           conns,
		DNS:             dns,
		ClassCounts:     classes,
		PlatformLookups: make(map[resolver.PlatformID]int),
	}
	for p := range plats {
		if n := plats[p].lookups; n > 0 {
			h.PlatformLookups[ids[p]] = n
		}
	}
	return h
}

// OnlyLocalFraction is §3's statistic: the share of houses whose every
// lookup targets the local ISP resolvers (paper: ~16%).
func OnlyLocalFraction(houses []HouseSummary) float64 {
	if len(houses) == 0 {
		return 0
	}
	only := 0
	for i := range houses {
		if houses[i].UsesOnlyLocal() {
			only++
		}
	}
	return float64(only) / float64(len(houses))
}
