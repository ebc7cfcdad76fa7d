package resolver

import (
	"math"
	"net/netip"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// RCodeServFail is the SERVFAIL response code a client synthesizes when
// every transmission attempt times out — the giveup outcome of the
// retry ladder.
const RCodeServFail uint8 = 2

// Result is the client-observed outcome of one recursive lookup.
type Result struct {
	// Duration is the total client-observed lookup time: network RTT,
	// any authoritative iteration the resolver performed, plus — under
	// fault injection — every timeout and backoff wait spent on lost
	// transmissions and any TCP-fallback exchange.
	Duration time.Duration
	// FromCache is true when the shared resolver answered from its cache
	// (the paper's SC case); false means authoritative servers were
	// contacted (the R case).
	FromCache bool
	// Resolver is the platform address that served the query (or, for
	// giveups, the last address tried).
	Resolver netip.Addr
	Answers  []trace.Answer
	RCode    uint8
	// Attempts is the number of transmissions the client made (1 = no
	// retransmission needed).
	Attempts int
	// TCPFallback is true when the UDP response was truncated and the
	// answer was obtained over a follow-up TCP exchange.
	TCPFallback bool
	// ServFail is true when every attempt was lost and the client gave
	// up; Duration then covers the full timeout ladder and RCode is
	// RCodeServFail.
	ServFail bool
	// Transport is the transport the lookup ran over (TransportUDP for
	// the paper's Do53 platforms).
	Transport TransportKind
	// Reused is true when a stream lookup found a live persistent
	// connection at its start and paid no handshake on the first attempt.
	Reused bool
	// Resumed is true when a stream lookup's (last) handshake was
	// shortened by a TLS session ticket.
	Resumed bool
	// Handshake is the total connection-establishment time the lookup
	// paid (zero for datagram transports and for reused connections).
	Handshake time.Duration
}

// Retries is the number of retransmissions beyond the first attempt.
func (r *Result) Retries() int {
	if r.Attempts <= 1 {
		return 0
	}
	return r.Attempts - 1
}

// Recursive is one resolver platform: a set of anycast frontends, each
// with an independent shared cache, backed by the authoritative model.
type Recursive struct {
	Profile PlatformProfile
	parts   []*Cache
	auth    *Authority
	rng     *stats.RNG

	// transport is how clients reach the platform; built from the
	// profile's Transport/Stream fields (UDPTransport when unset).
	transport Transport

	queries uint64
	hits    uint64

	retries      uint64
	servfails    uint64
	tcpFallbacks uint64
	timeouts     uint64
	streamResets uint64

	// obs carries the optional per-platform instrument handles; the zero
	// value (all nil) makes every observation a guarded no-op. See
	// Instrument.
	obs recMetrics
}

// NewRecursive builds a platform instance.
func NewRecursive(profile PlatformProfile, auth *Authority, rng *stats.RNG) *Recursive {
	n := profile.Partitions
	if n < 1 {
		n = 1
	}
	parts := make([]*Cache, n)
	for i := range parts {
		parts[i] = NewCache(profile.CacheCapacity)
	}
	return &Recursive{
		Profile:   profile,
		parts:     parts,
		auth:      auth,
		rng:       rng,
		transport: NewTransport(profile.Transport, profile.Stream),
	}
}

// Transport returns the transport the platform speaks.
func (rr *Recursive) Transport() Transport { return rr.transport }

// HitRate returns the platform's cumulative shared-cache hit rate. Hits
// are counted at the frontend: a cached answer whose response packet is
// subsequently lost still counts, because the cache did serve it.
func (rr *Recursive) HitRate() float64 {
	if rr.queries == 0 {
		return 0
	}
	return float64(rr.hits) / float64(rr.queries)
}

// FailureCounters reports the platform's cumulative fault-path activity:
// retransmissions, client giveups, and TCP fallbacks after truncation.
func (rr *Recursive) FailureCounters() (retries, servfails, tcpFallbacks uint64) {
	return rr.retries, rr.servfails, rr.tcpFallbacks
}

// LossCounters breaks the platform's lost attempts down by mechanism:
// datagram timeouts (a lost UDP transmission or a lost stream handshake,
// both experienced as silence until the timer fires) versus stream
// connection resets (an established DoTCP/DoT/DoH connection killed by a
// fault mid-exchange, which the client sees as a broken stream and
// answers with a reconnect, not a retransmit).
func (rr *Recursive) LossCounters() (timeouts, streamResets uint64) {
	return rr.timeouts, rr.streamResets
}

// Lookup resolves host with the default retry policy. With a zero fault
// profile this is exactly the pre-fault lookup path.
func (rr *Recursive) Lookup(now time.Duration, host string) Result {
	return rr.LookupWith(now, host, DefaultRetryPolicy())
}

// LookupWith resolves host for a client at virtual time now under the
// given retry policy. The returned Result carries everything the
// generator needs to emit the dns.log record and to decide when (and
// whether) the answer is available to the application.
//
// The failure model: each attempt sends the query over the platform link
// (which may drop it — random loss or a scheduled outage), the frontend
// answers (shared cache, externally-warm, or authoritative iteration),
// and the response crosses the link back (which may drop it too). A lost
// transmission in either direction costs the client the full per-attempt
// timeout; the next attempt backs off exponentially (bounded) and, under
// RotateServers, moves to the platform's next anycast address. When every
// attempt is lost the client synthesizes SERVFAIL. Responses carrying
// more answers than the fault profile's truncation threshold arrive
// truncated over UDP and are re-fetched via TCP (handshake plus
// exchange). With a zero FaultProfile every branch collapses to the
// single-attempt path and consumes the exact RNG stream of the pre-fault
// implementation, keeping historical runs bit-identical.
//
// The ladder itself lives in the platform's Transport (UDPTransport for
// Do53 — see transport.go); stream transports replace retransmission
// with reconnection. LookupWith runs every lookup cold; callers holding
// a persistent connection use LookupConn.
func (rr *Recursive) LookupWith(now time.Duration, host string, rp RetryPolicy) Result {
	return rr.LookupConn(nil, now, host, rp)
}

// LookupConn is LookupWith with caller-held persistent-connection state:
// cs carries one stub's live connection to this platform (and its TLS
// session ticket) across lookups, so bursts share a handshake. A nil cs
// is always cold. Datagram transports ignore cs entirely.
func (rr *Recursive) LookupConn(cs *ConnState, now time.Duration, host string, rp RetryPolicy) Result {
	rr.queries++
	rr.obs.lookups.Inc()
	return rr.transport.Exchange(rr, cs, now, host, rp)
}

// answerAt resolves host at one frontend at virtual time arrival,
// returning the answers, rcode, whether the shared cache (or external
// warmth) served them, and the extra iteration delay the frontend spent
// on a miss. Cache state is updated as a side effect, so a lost response
// still warms the frontend.
func (rr *Recursive) answerAt(part *Cache, arrival time.Duration, host string) (answers []trace.Answer, rcode uint8, fromCache bool, iterate time.Duration) {
	if answers, rcode, ok := part.Get(arrival, host); ok {
		rr.hits++
		rr.obs.hits.Inc()
		return answers, rcode, true, 0
	}

	// The frontend also serves clients outside the simulation; a popular
	// name missed here may well be warm because someone else just asked.
	if ans, ok := rr.externallyWarm(host); ok {
		rr.hits++
		rr.obs.hits.Inc()
		// Seed the partition so subsequent in-simulation queries hit it
		// organically.
		part.Put(arrival, host, ans, 0, 0)
		return ans, 0, true, 0
	}

	// Cache miss: iterate to the authoritative servers.
	rr.obs.misses.Inc()
	authRes := rr.auth.Resolve(host, rr.rng)
	iterate = authRes.Delay + rr.Profile.AuthExtra.Delay(rr.rng)
	done := arrival + iterate
	negTTL := time.Duration(0)
	if len(authRes.Answers) == 0 {
		negTTL = rr.auth.NegTTL
	}
	part.Put(done, host, authRes.Answers, authRes.RCode, negTTL)
	return authRes.Answers, authRes.RCode, false, iterate
}

// externallyWarm models the platform's other clients (see
// PlatformProfile.ExternalQPS): under Poisson external arrivals at rate
// qps·share, the record is live in the frontend's cache with probability
// 1 − exp(−qps·share·TTL), with a uniformly distributed residual TTL.
func (rr *Recursive) externallyWarm(host string) ([]trace.Answer, bool) {
	qps := rr.Profile.ExternalQPS
	if qps <= 0 {
		return nil, false
	}
	n := rr.auth.Zones().Lookup(host)
	if n == nil {
		return nil, false
	}
	share := rr.auth.Zones().Share(n)
	ttlSecs := n.TTL.Seconds()
	p := 1 - math.Exp(-qps*share*ttlSecs)
	if !rr.rng.Bool(p) {
		return nil, false
	}
	// Age uniform over the TTL; keep at least one second of life so the
	// answer is cacheable downstream.
	rem := time.Duration(rr.rng.Float64() * float64(n.TTL))
	if rem < time.Second {
		rem = time.Second
	}
	answers := make([]trace.Answer, len(n.Addrs))
	for i, addr := range n.Addrs {
		answers[i] = trace.Answer{Addr: addr, TTL: rem}
	}
	return answers, true
}
