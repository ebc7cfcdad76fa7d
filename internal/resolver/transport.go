package resolver

import (
	"fmt"
	"time"

	"dnscontext/internal/netsim"
)

// TransportKind identifies how clients reach a resolver platform: the
// paper's clear-text Do53 over UDP, or one of the encrypted/stream
// transports the modern deployment question is about (RFC 7766 DoTCP,
// RFC 7858 DoT, RFC 8484 DoH).
type TransportKind uint8

// The four transports a platform can speak.
const (
	// TransportUDP is classic Do53: one datagram out, one back, with the
	// existing TC→TCP re-ask on truncation. The zero value, so every
	// profile built before transports existed keeps its exact behavior.
	TransportUDP TransportKind = iota
	// TransportTCP is DNS-over-TCP (RFC 7766): length-prefixed messages
	// on a persistent connection reused across lookups until idle.
	TransportTCP
	// TransportTLS is DNS-over-TLS (DoT, RFC 7858): TCP plus a TLS
	// handshake, amortized by connection reuse and session resumption.
	TransportTLS
	// TransportHTTPS is DNS-over-HTTPS (DoH, RFC 8484): TLS plus
	// per-exchange HTTP framing overhead.
	TransportHTTPS
	numTransports
)

// String returns the deployment name used in tables and metric labels.
func (k TransportKind) String() string {
	switch k {
	case TransportUDP:
		return "Do53"
	case TransportTCP:
		return "DoTCP"
	case TransportTLS:
		return "DoT"
	case TransportHTTPS:
		return "DoH"
	}
	return fmt.Sprintf("Transport(%d)", uint8(k))
}

// Stream reports whether the transport runs over a persistent stream
// connection (everything but Do53).
func (k TransportKind) Stream() bool { return k != TransportUDP }

// TLS reports whether the transport pays a TLS handshake.
func (k TransportKind) TLS() bool { return k == TransportTLS || k == TransportHTTPS }

// Transports lists every kind, in comparison-table order.
func Transports() []TransportKind {
	return []TransportKind{TransportUDP, TransportTCP, TransportTLS, TransportHTTPS}
}

// ParseTransport maps a config/flag spelling to a kind: "udp"/"do53",
// "tcp"/"dotcp", "dot"/"tls", "doh"/"https". Empty means UDP.
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "", "udp", "do53", "Do53":
		return TransportUDP, nil
	case "tcp", "dotcp", "DoTCP":
		return TransportTCP, nil
	case "dot", "tls", "DoT":
		return TransportTLS, nil
	case "doh", "https", "DoH":
		return TransportHTTPS, nil
	}
	return 0, fmt.Errorf("resolver: unknown transport %q (want udp, tcp, dot, or doh)", s)
}

// StreamConfig parameterizes the stream transports' cost model. The
// round-trip counts follow the measured shapes in Hounsel et al. (DoT/DoH
// handshake cost dominates cold lookups) and Dikshit et al. (DoTCP
// fallback pays one extra RTT): one RTT of TCP handshake before the query
// can leave, two more for a full TLS handshake, one for a ticket-resumed
// one, and a fixed per-exchange overhead for DoH's HTTP framing. See
// DESIGN.md §7g for the calibration notes.
type StreamConfig struct {
	// IdleTimeout is how long a persistent connection survives unused
	// before either end closes it (default 10 s).
	IdleTimeout time.Duration
	// SessionResumption enables TLS session tickets: reconnects within
	// SessionLifetime of the last handshake pay TLSResumedRTTs instead of
	// TLSRTTs. Ignored by DoTCP.
	SessionResumption bool
	// SessionLifetime is how long a session ticket stays usable
	// (default 1 h).
	SessionLifetime time.Duration
	// TransportRTTs is the round trips of transport-layer handshake
	// before the first query byte can leave (default 1: TCP's SYN/SYN-ACK).
	TransportRTTs int
	// TLSRTTs is the additional round trips of a full TLS handshake
	// (default 2).
	TLSRTTs int
	// TLSResumedRTTs is the additional round trips of a ticket-resumed
	// TLS handshake (default 1).
	TLSResumedRTTs int
	// PerQueryOverhead is a fixed per-exchange cost on top of the wire
	// round trip — DoH's HTTP request/response framing (default 500 µs
	// for DoH, zero otherwise).
	PerQueryOverhead time.Duration
}

// WithDefaults fills zero-valued fields with the kind's calibrated
// defaults.
func (c StreamConfig) WithDefaults(kind TransportKind) StreamConfig {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.SessionLifetime <= 0 {
		c.SessionLifetime = time.Hour
	}
	if c.TransportRTTs <= 0 {
		c.TransportRTTs = 1
	}
	if c.TLSRTTs <= 0 {
		c.TLSRTTs = 2
	}
	if c.TLSResumedRTTs <= 0 {
		c.TLSResumedRTTs = 1
	}
	if c.PerQueryOverhead <= 0 && kind == TransportHTTPS {
		c.PerQueryOverhead = 500 * time.Microsecond
	}
	return c
}

// ConnState is caller-owned persistent-connection state for the stream
// transports: the live connection (with its pinned frontend and anycast
// address) and the TLS session ticket. One ConnState models one stub's
// relationship with one platform; the generator keeps one per
// (device, platform). A nil *ConnState is always cold: nothing persists
// past the lookup, so every lookup pays a fresh handshake. The UDP
// transport ignores it entirely.
type ConnState struct {
	stream netsim.Stream
	// part and addrIdx are pinned while the connection is up: a stream
	// speaks to the one frontend it connected to, unlike per-datagram
	// anycast re-routing.
	part    int
	addrIdx int
	// hasSession/sessionUntil track the TLS session ticket from the last
	// successful handshake.
	hasSession   bool
	sessionUntil time.Duration
}

// Transport is the seam between a Recursive platform and the wire: it
// runs one lookup's full failure ladder (retransmits for datagrams,
// reconnects for streams) against the platform's link, fault profile,
// and frontend caches. Implementations draw all randomness from the
// platform's RNG, in a fixed order, so seeded runs stay reproducible.
type Transport interface {
	Kind() TransportKind
	// Exchange resolves host for a client at virtual time now under rp.
	// cs carries the caller's persistent-connection state; nil means no
	// reuse (and is always valid).
	Exchange(rr *Recursive, cs *ConnState, now time.Duration, host string, rp RetryPolicy) Result
}

// NewTransport builds the transport for a kind. The zero kind returns
// the UDP transport, whose behavior (and RNG draw order) is exactly the
// pre-transport-seam lookup path.
func NewTransport(kind TransportKind, cfg StreamConfig) Transport {
	if kind == TransportUDP {
		return UDPTransport{}
	}
	return &StreamTransport{kind: kind, cfg: cfg.WithDefaults(kind)}
}

// UDPTransport is classic Do53: per-attempt datagrams with retransmission
// on timeout, anycast re-routing on every attempt, and the TC→TCP re-ask
// when a response exceeds the truncation threshold. This is a pure seam
// extraction of the original Recursive.LookupWith loop — with a zero
// fault profile it consumes the exact RNG stream of the pre-transport
// implementation, keeping historical runs bit-identical.
type UDPTransport struct{}

// Kind returns TransportUDP.
func (UDPTransport) Kind() TransportKind { return TransportUDP }

// Exchange runs the datagram retry ladder. See Recursive.LookupWith for
// the failure-model contract.
func (UDPTransport) Exchange(rr *Recursive, _ *ConnState, now time.Duration, host string, rp RetryPolicy) Result {
	faults := rr.Profile.Faults
	timeout := rp.Timeout
	maxAttempts := rp.attempts()
	var elapsed time.Duration
	var res Result
	addrIdx := 0

	for attempt := 0; attempt < maxAttempts; attempt++ {
		res.Attempts = attempt + 1
		if attempt > 0 {
			rr.obs.retries.Inc()
		}
		sendAt := now + elapsed
		// Pick the frontend: clients hash to frontends per flow in
		// reality; per-query random choice models load-balanced anycast,
		// which is what de-correlates Google's caches. Retries re-draw —
		// the anycast route may shift under failure.
		part := rr.parts[rr.rng.Intn(len(rr.parts))]
		// The query reaches the frontend after one one-way delay; the
		// answer returns after another. Both are sampled up front so the
		// zero-fault draw order matches the pre-fault implementation.
		owdOut, lostOut := rr.Profile.Link.DeliverUnder(sendAt, faults, rr.rng)
		owdBack, lostBack := rr.Profile.Link.DeliverUnder(sendAt+owdOut, faults, rr.rng)
		if attempt == 0 {
			addrIdx = rr.rng.Intn(len(rr.Profile.Addrs))
		} else if rp.RotateServers {
			addrIdx = (addrIdx + 1) % len(rr.Profile.Addrs)
		}
		res.Resolver = rr.Profile.Addrs[addrIdx]

		if lostOut {
			// The query never arrived; the client waits out the timeout.
			elapsed += timeout
			timeout = rp.next(timeout)
			rr.retries++
			rr.timeouts++
			rr.obs.timeouts.Inc()
			continue
		}
		arrival := sendAt + owdOut
		answers, rcode, fromCache, iterate := rr.answerAt(part, arrival, host)
		if lostBack {
			// The response was lost on the way back. The frontend cache
			// is warm now, so a retry may turn an R into an SC — exactly
			// the ambiguity loss injects into the passive analysis.
			elapsed += timeout
			timeout = rp.next(timeout)
			rr.retries++
			rr.timeouts++
			rr.obs.timeouts.Inc()
			continue
		}

		res.FromCache = fromCache
		res.Answers = answers
		res.RCode = rcode
		res.Duration = elapsed + owdOut + iterate + owdBack
		if faults.Truncated(len(answers)) {
			// UDP truncation: the client re-asks over TCP — one handshake
			// round trip plus the query/response exchange.
			res.TCPFallback = true
			rr.tcpFallbacks++
			rr.obs.tcpFallbacks.Inc()
			res.Duration += rr.Profile.Link.RTT(rr.rng) + rr.Profile.Link.RTT(rr.rng)
		}
		rr.obs.duration.Observe(res.Duration)
		return res
	}

	// Every attempt lost: the client gives up with a synthesized
	// SERVFAIL after the full timeout ladder.
	res.ServFail = true
	res.RCode = RCodeServFail
	res.Duration = elapsed
	rr.servfails++
	rr.obs.servfails.Inc()
	rr.obs.duration.Observe(res.Duration)
	return res
}

// StreamTransport is the shared machinery of DoTCP, DoT, and DoH: a
// persistent connection established with a handshake whose round-trip
// count depends on the kind (and on session resumption), reused across
// lookups until idle, and torn down — not retransmitted through — when a
// fault eats an in-connection delivery. An attempt in the retry ladder
// is therefore a reconnect: handshake (if the connection is down) plus
// one exchange.
type StreamTransport struct {
	kind TransportKind
	cfg  StreamConfig
}

// Kind returns the stream transport's kind.
func (t *StreamTransport) Kind() TransportKind { return t.kind }

// Config returns the resolved cost-model parameters.
func (t *StreamTransport) Config() StreamConfig { return t.cfg }

// handshakeRTTs is the round trips a new connection costs: the transport
// handshake plus, for TLS transports, the full or resumed TLS handshake.
func (t *StreamTransport) handshakeRTTs(resumed bool) int {
	return t.cfg.HandshakeRTTs(t.kind, resumed)
}

// HandshakeRTTs is the round trips a new kind connection costs under this
// (resolved) configuration. Exposed so the analytic transport what-if in
// internal/core prices handshakes with exactly the live transport's
// arithmetic.
func (c StreamConfig) HandshakeRTTs(kind TransportKind, resumed bool) int {
	rtts := c.TransportRTTs
	if kind.TLS() {
		if resumed {
			rtts += c.TLSResumedRTTs
		} else {
			rtts += c.TLSRTTs
		}
	}
	return rtts
}

// Exchange runs the reconnect ladder: each attempt re-establishes the
// connection if it is down (a lost handshake burns the attempt's
// timeout), then sends the query in-stream, where a fault kills the
// connection instead of one datagram. Responses of any size fit a
// stream, so there is no truncation re-ask. A connection pins its
// frontend partition and anycast address for its lifetime.
func (t *StreamTransport) Exchange(rr *Recursive, cs *ConnState, now time.Duration, host string, rp RetryPolicy) Result {
	faults := rr.Profile.Faults
	timeout := rp.Timeout
	maxAttempts := rp.attempts()
	var elapsed time.Duration
	var res Result
	res.Transport = t.kind
	var local ConnState
	if cs == nil {
		// No caller-held state: the connection lives only for this lookup.
		cs = &local
	}
	res.Reused = cs.stream.LiveAt(now)

	for attempt := 0; attempt < maxAttempts; attempt++ {
		res.Attempts = attempt + 1
		if attempt > 0 {
			rr.obs.retries.Inc()
		}
		sendAt := now + elapsed

		if !cs.stream.LiveAt(sendAt) {
			// Cold or reset: the new connection draws its frontend and
			// anycast address (a reconnect may be routed anywhere), then
			// pays the handshake.
			cs.part = rr.rng.Intn(len(rr.parts))
			cs.addrIdx = rr.rng.Intn(len(rr.Profile.Addrs))
			resumed := t.kind.TLS() && t.cfg.SessionResumption &&
				cs.hasSession && sendAt <= cs.sessionUntil
			hs, ok := rr.Profile.Link.EstablishUnder(sendAt, t.handshakeRTTs(resumed), faults, rr.rng)
			if !ok {
				// The handshake never completed — a connect timeout. Wait
				// it out and reconnect with the next attempt's budget.
				elapsed += timeout
				timeout = rp.next(timeout)
				rr.retries++
				rr.timeouts++
				rr.obs.timeouts.Inc()
				continue
			}
			cs.stream.Touch(sendAt+hs, t.cfg.IdleTimeout)
			if t.kind.TLS() {
				cs.hasSession = true
				cs.sessionUntil = sendAt + hs + t.cfg.SessionLifetime
				res.Resumed = resumed
			}
			res.Handshake += hs
			elapsed += hs
			sendAt = now + elapsed
		}
		res.Resolver = rr.Profile.Addrs[cs.addrIdx]

		owdOut, reset := rr.Profile.Link.DeliverStream(&cs.stream, sendAt, faults, rr.rng)
		if reset {
			// The query (or the connection under it) died in flight: the
			// client's next attempt reconnects rather than retransmits.
			elapsed += timeout
			timeout = rp.next(timeout)
			rr.retries++
			rr.streamResets++
			rr.obs.streamResets.Inc()
			continue
		}
		arrival := sendAt + owdOut
		answers, rcode, fromCache, iterate := rr.answerAt(rr.parts[cs.part], arrival, host)
		owdBack, reset := rr.Profile.Link.DeliverStream(&cs.stream, arrival+iterate, faults, rr.rng)
		if reset {
			// The response died with the connection. The frontend cache is
			// warm now, so the reconnect's re-ask may turn an R into an SC
			// — the same ambiguity the datagram path injects.
			elapsed += timeout
			timeout = rp.next(timeout)
			rr.retries++
			rr.streamResets++
			rr.obs.streamResets.Inc()
			continue
		}

		res.FromCache = fromCache
		res.Answers = answers
		res.RCode = rcode
		res.Duration = elapsed + owdOut + iterate + owdBack + t.cfg.PerQueryOverhead
		// Every successful exchange restarts the idle clock.
		cs.stream.Touch(now+res.Duration, t.cfg.IdleTimeout)
		rr.obs.duration.Observe(res.Duration)
		return res
	}

	// Every attempt lost: SERVFAIL after the full ladder, like Do53.
	res.ServFail = true
	res.RCode = RCodeServFail
	res.Duration = elapsed
	res.Resolver = rr.Profile.Addrs[cs.addrIdx]
	rr.servfails++
	rr.obs.servfails.Inc()
	rr.obs.duration.Observe(res.Duration)
	return res
}
