package resolver

import (
	"time"

	"dnscontext/internal/netsim"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// Authority models the authoritative side of the namespace: the root and
// TLD layers (almost always cached by recursives, so cheap) plus the
// per-zone authoritative servers whose distance dominates cache-miss
// latency.
type Authority struct {
	zones *zonedb.DB
	// tldCacheMissProb is the small chance a recursive must re-fetch the
	// TLD delegation (its cached copy expired), adding tldDelay.
	tldCacheMissProb float64
	tldLink          netsim.Link
	// jitter scales the per-zone AuthDelay stochastically.
	jitter netsim.Link
	// NegTTL is the negative-caching lifetime for NXDOMAIN results.
	NegTTL time.Duration
}

// NewAuthority builds the authoritative model over zones.
func NewAuthority(zones *zonedb.DB) *Authority {
	return &Authority{
		zones:            zones,
		tldCacheMissProb: 0.01,
		tldLink:          netsim.Link{Base: 15 * time.Millisecond, Jitter: 10 * time.Millisecond},
		jitter:           netsim.Link{Base: 0, Jitter: 5 * time.Millisecond, SlowProb: 0.03, SlowFactor: 6},
		NegTTL:           300 * time.Second,
	}
}

// AuthResult is the outcome of full authoritative resolution of one name.
type AuthResult struct {
	// Delay is the time the recursive spent iterating.
	Delay   time.Duration
	Answers []trace.Answer
	RCode   uint8
}

// Resolve performs the (simulated) iterative resolution a recursive
// resolver does on a cache miss.
func (a *Authority) Resolve(host string, r *stats.RNG) AuthResult {
	n := a.zones.Lookup(host)
	delay := time.Duration(0)
	if r.Bool(a.tldCacheMissProb) {
		// Re-fetch the TLD delegation from the root/TLD layer.
		delay += a.tldLink.RTT(r)
	}
	if n == nil {
		// NXDOMAIN still requires asking an authoritative server; charge a
		// generic zone distance.
		delay += 40*time.Millisecond + a.jitter.Delay(r)
		return AuthResult{Delay: delay, RCode: 3}
	}
	delay += n.AuthDelay + a.jitter.Delay(r)
	answers := make([]trace.Answer, len(n.Addrs))
	for i, addr := range n.Addrs {
		answers[i] = trace.Answer{Addr: addr, TTL: n.TTL}
	}
	return AuthResult{Delay: delay, Answers: answers}
}

// Zones returns the namespace backing this authority.
func (a *Authority) Zones() *zonedb.DB { return a.zones }
