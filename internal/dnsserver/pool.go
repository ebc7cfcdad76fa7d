package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
)

// Client-side sharded sockets. The basic Client opens a fresh UDP socket
// per attempt, which is fine for a handful of interactive queries and
// hopeless for a bulk scanner holding tens of thousands of queries in
// flight: every attempt pays a dial, and the kernel churns through
// ephemeral ports. ClientPool is the reusable dial path for concurrent
// callers — it dials a small, fixed set of connected UDP sockets per
// upstream, shards queries across them round-robin, and demultiplexes
// responses back to waiters by DNS message ID, so any number of
// goroutines can query through one pool with no per-query dial and no
// lock on the wire path beyond the pending-table update.
//
// Beyond the basic ladder, the pool can earn its way through unreliable
// networks (DESIGN.md §7i): multiple upstreams with per-attempt
// failover, RFC 6298 adaptive per-attempt timeouts (SRTT/RTTVAR per
// upstream, opt-in via Adaptive), an optional hedged second request
// after the expected-latency horizon, and a per-upstream circuit
// breaker that fails fast on a dead upstream instead of paying the full
// ladder per query.

// Pool errors beyond the Client's ErrTimeout/ErrMismatch taxonomy.
var (
	// ErrPoolClosed is returned by Query once Close has been called.
	ErrPoolClosed = errors.New("dnsserver: client pool closed")
	// ErrPoolBusy is returned when a socket's 16-bit ID space is
	// exhausted — ~65k queries in flight (or recently timed out and
	// still quarantined) on one socket.
	ErrPoolBusy = errors.New("dnsserver: too many queries in flight")
)

// ClientPoolConfig parameterizes a ClientPool. The zero value gets
// sensible defaults: one upstream, 4 sockets per upstream, 2 s
// per-attempt timeout, 2 retries, flat backoff, no adaptive timeouts,
// no hedging, no circuit breaker.
type ClientPoolConfig struct {
	// Sockets is the number of UDP sockets to shard queries across per
	// upstream (default 4). More sockets spread kernel socket-buffer
	// pressure and widen the usable ID space (each socket has its own
	// 16-bit space).
	Sockets int
	// Timeout bounds the first attempt (default 2 s). In adaptive mode
	// it is the initial RTO before any sample and the RTO ceiling when
	// MaxTimeout is unset.
	Timeout time.Duration
	// Retries is the number of additional attempts (default 2). Each
	// retry moves to the next socket — and, with multiple Servers, the
	// next upstream — and re-sends under a fresh ID.
	Retries int
	// Backoff multiplies the timeout after each failed attempt; values
	// below 1 are treated as 1 (flat), mirroring resolver.RetryPolicy.
	// Adaptive mode floors the factor at 2 (RFC 6298 doubles the RTO on
	// retransmission).
	Backoff float64
	// MaxTimeout caps the per-attempt timeout after backoff, including
	// the first attempt (0 = uncapped).
	MaxTimeout time.Duration

	// Servers, when non-empty, is the full upstream set; the server
	// argument to NewClientPool is ignored. Queries rotate across
	// upstreams round-robin, and each retry moves to the next upstream —
	// multi-upstream failover.
	Servers []string
	// Adaptive switches per-attempt timeouts from the fixed ladder to
	// the RFC 6298 estimate: RTO = SRTT + 4·RTTVAR per upstream, doubled
	// per retry (or ×Backoff if larger), clamped to [20 ms, MaxTimeout
	// or Timeout]. Until an upstream has a sample, the fixed ladder
	// applies.
	Adaptive bool
	// Hedge sends a second copy of a still-unanswered first attempt to
	// another upstream (another socket when there is only one) once the
	// hedge delay elapses; the first response wins and the loser is
	// abandoned. At most one hedge per query, and only on the first
	// attempt — retries are already retransmissions.
	Hedge bool
	// HedgeAfter fixes the hedge delay. Zero derives it from the
	// primary upstream's estimator (SRTT + 2·RTTVAR, roughly the upper
	// latency percentiles), falling back to half the attempt timeout
	// before any sample.
	HedgeAfter time.Duration
	// Breaker, when non-nil, puts a circuit breaker in front of every
	// upstream (see BreakerConfig). With every breaker open, Query fails
	// fast with ErrCircuitOpen.
	Breaker *BreakerConfig
	// Metrics, when non-nil, receives the pool's instrument families
	// (dnsctx_pool_*): attempts, timeouts, hedges and hedge wins,
	// failovers, busy rejections, breaker transitions, and per-upstream
	// SRTT/RTTVAR gauges plus an RTT histogram.
	Metrics *obs.Registry
}

func (c ClientPoolConfig) withDefaults() ClientPoolConfig {
	if c.Sockets <= 0 {
		c.Sockets = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff < 1 {
		c.Backoff = 1
	}
	return c
}

// minAdaptiveTimeout floors the adaptive RTO.
const minAdaptiveTimeout = 20 * time.Millisecond

// attemptTimeout returns the fixed ladder's timeout for the given
// 0-based attempt: Timeout·Backoff^attempt, with MaxTimeout capping
// every attempt including the first (so MaxTimeout < Timeout means
// every attempt waits MaxTimeout). Backoff exactly 1 yields a flat
// ladder. Call on a defaulted config.
func (c ClientPoolConfig) attemptTimeout(attempt int) time.Duration {
	d := c.Timeout
	if c.MaxTimeout > 0 && d > c.MaxTimeout {
		return c.MaxTimeout
	}
	for i := 0; i < attempt; i++ {
		d = time.Duration(float64(d) * c.Backoff)
		if c.MaxTimeout > 0 && d > c.MaxTimeout {
			return c.MaxTimeout
		}
	}
	return d
}

// adaptiveTimeout returns the adaptive per-attempt timeout from a base
// RTO: RTO·factor^attempt with factor = max(Backoff, 2), clamped to
// [minAdaptiveTimeout, MaxTimeout or Timeout]. Call on a defaulted config.
func (c ClientPoolConfig) adaptiveTimeout(rto time.Duration, attempt int) time.Duration {
	factor := c.Backoff
	if factor < 2 {
		factor = 2
	}
	ceil := c.MaxTimeout
	if ceil <= 0 {
		ceil = c.Timeout
	}
	d := rto
	for i := 0; i < attempt; i++ {
		d = time.Duration(float64(d) * factor)
		if d >= ceil {
			break
		}
	}
	if d < minAdaptiveTimeout {
		d = minAdaptiveTimeout
	}
	if d > ceil {
		d = ceil
	}
	return d
}

// poolMetrics is the pool's instrument set; every field is nil-safe, so
// an unobserved pool pays only nil checks.
type poolMetrics struct {
	attempts    *obs.Counter
	timeouts    *obs.Counter
	hedges      *obs.Counter
	hedgeWins   *obs.Counter
	failovers   *obs.Counter
	busy        *obs.Counter
	circuitOpen *obs.Counter
	transitions *obs.CounterVec
	srtt        *obs.FloatGaugeVec
	rttvar      *obs.FloatGaugeVec
	rtt         *obs.TimerVec
}

func newPoolMetrics(reg *obs.Registry) poolMetrics {
	if reg == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		attempts: reg.Counter("dnsctx_pool_attempts_total",
			"Wire transmissions by the client pool (initial sends, retries, and hedges)."),
		timeouts: reg.Counter("dnsctx_pool_timeouts_total",
			"Attempts that expired with no response."),
		hedges: reg.Counter("dnsctx_pool_hedges_total",
			"Hedged second requests sent after the latency horizon."),
		hedgeWins: reg.Counter("dnsctx_pool_hedge_wins_total",
			"Queries whose hedged request answered first."),
		failovers: reg.Counter("dnsctx_pool_failovers_total",
			"Retries routed to a different upstream than the previous attempt."),
		busy: reg.Counter("dnsctx_pool_busy_total",
			"Queries rejected because a socket's message-ID space was exhausted."),
		circuitOpen: reg.Counter("dnsctx_pool_circuit_open_total",
			"Queries failed fast because every upstream's circuit breaker was open."),
		transitions: reg.CounterVec("dnsctx_pool_breaker_transitions_total",
			"Circuit-breaker state transitions, by upstream and new state.", "upstream", "to"),
		srtt: reg.FloatGaugeVec("dnsctx_pool_srtt_seconds",
			"Smoothed RTT per upstream (RFC 6298 SRTT).", "upstream"),
		rttvar: reg.FloatGaugeVec("dnsctx_pool_rttvar_seconds",
			"RTT variance per upstream (RFC 6298 RTTVAR).", "upstream"),
		rtt: reg.TimerVec("dnsctx_pool_rtt_seconds",
			"Matched-response RTT samples, by upstream.", "upstream"),
	}
}

// upstream is one server the pool can exchange with: its sharded socket
// set, its RTT estimator, and its circuit breaker.
type upstream struct {
	addr  string
	socks []*poolSock
	next  atomic.Uint64
	est   rttEstimator
	brk   *breaker // nil = no breaker

	// Pre-resolved per-upstream metric handles (nil-safe).
	srttG   *obs.FloatGauge
	rttvarG *obs.FloatGauge
	rttT    *obs.Timer
}

// sock returns the next socket round-robin.
func (u *upstream) sock() *poolSock {
	return u.socks[u.next.Add(1)%uint64(len(u.socks))]
}

// allow consults the breaker; without one every query is admitted.
func (u *upstream) allow(now time.Time) (ok, probe bool) {
	if u.brk == nil {
		return true, false
	}
	return u.brk.allow(now)
}

// ok records a successful exchange with the breaker.
func (u *upstream) ok(probe bool) {
	if u.brk != nil {
		u.brk.success(probe)
	}
}

// fail records a failed exchange (timeout, send error) with the breaker.
func (u *upstream) fail(probe bool) {
	if u.brk != nil {
		u.brk.failure(probe, time.Now())
	}
}

// release resolves a breaker admission with no outcome to report — the
// attempt was abandoned (lost the hedge race, cancelled, pool closed) or
// never made it onto the wire for a local reason.
func (u *upstream) release(probe bool) {
	if u.brk != nil {
		u.brk.release(probe)
	}
}

// observeRTT folds one matched-response RTT into the estimator and the
// upstream's gauges.
func (u *upstream) observeRTT(rtt time.Duration) {
	srtt, rttvar := u.est.observe(rtt)
	u.srttG.SetSeconds(srtt)
	u.rttvarG.SetSeconds(rttvar)
	u.rttT.Observe(rtt)
}

// ClientPool is a concurrent-caller UDP DNS client over a fixed set of
// shared sockets per upstream. It is safe for use by any number of
// goroutines; Close releases the sockets and fails queries still
// waiting.
type ClientPool struct {
	cfg ClientPoolConfig
	ups []*upstream
	// next rotates the primary upstream across queries (and, within an
	// attempt ladder, the failover order).
	next atomic.Uint64
	met  poolMetrics

	inflight atomic.Int64
	done     chan struct{} // closed by Close
	closed   atomic.Bool
	wg       sync.WaitGroup
}

// poolSock is one shared socket: a connected UDP conn, its pending-call
// table keyed by message ID, and a reader goroutine demuxing responses.
type poolSock struct {
	conn    *net.UDPConn
	mu      sync.Mutex
	pending map[uint16]*poolCall
	nextID  uint16
}

// poolCall is one waiter. The channel has capacity 1 and is written at
// most once (the reader drops responses for unregistered IDs), so the
// reader never blocks on a slow waiter.
type poolCall struct {
	ch chan *dnswire.Message
	// abandoned is the UnixNano instant the waiter gave up (timeout,
	// cancel, pool close) while its query was still on the wire; zero
	// means the waiter is live. An abandoned entry keeps its ID parked so
	// a late response cannot be demuxed to a NEW query that reused the
	// ID — that would surface as a spurious ErrMismatch for a different
	// name, or worse, silently hand a stale answer to a retry of the same
	// name. The ID is reclaimed when the late response finally lands (the
	// reader deletes on delivery) or after idQuarantine elapses.
	abandoned int64
}

// callPool recycles poolCalls. A call goes back only when no reader can
// still hold it — its waiter received the one response it can carry, or
// it left the pending table before anything was sent under its ID — so a
// pooled call is live (never abandoned) and its channel is empty.
var callPool = sync.Pool{New: func() any {
	return &poolCall{ch: make(chan *dnswire.Message, 1)}
}}

// attemptScratch is what one attempt borrows and returns on every exit
// path: the buffer its query is encoded into (the primary's, then a
// hedge's: a datagram is copied into the kernel as it is sent) and its
// two timers. None of it stays with a call parked in the ID quarantine,
// which keeps only its channel and timestamp.
type attemptScratch struct {
	wire         []byte
	timer, hedge reusableTimer
}

var scratchPool = sync.Pool{New: func() any { return new(attemptScratch) }}

func (sc *attemptScratch) release() {
	sc.timer.stop()
	sc.hedge.stop()
	scratchPool.Put(sc)
}

// reusableTimer is a timer that is armed and stopped many times. go.mod
// says go 1.22, so the pre-1.23 timer semantics apply: a timer that
// fires leaves its tick in the channel until it is read, and a Stop that
// races the firing can return false before the tick is sent. stop
// therefore drains a tick it finds, and drops a timer whose tick is
// neither read nor found, which a later start replaces, rather than
// risk a stale tick ending a later attempt early.
type reusableTimer struct {
	t     *time.Timer
	armed bool
	fired bool // the tick was read
}

// start arms the timer for d and returns its channel.
func (r *reusableTimer) start(d time.Duration) <-chan time.Time {
	if r.t == nil {
		r.t = time.NewTimer(d)
	} else {
		r.t.Reset(d)
	}
	r.armed, r.fired = true, false
	return r.t.C
}

// stop leaves the timer stopped with an empty channel, or drops it.
func (r *reusableTimer) stop() {
	if !r.armed {
		return
	}
	r.armed = false
	if r.t.Stop() || r.fired {
		return
	}
	select {
	case <-r.t.C:
	default:
		r.t = nil
	}
}

// idQuarantine is how long an abandoned message ID stays parked before
// register may hand it out again. Longer than any plausible late-response
// arrival (server work + queueing + loopback/kernel buffering), short
// enough that even a total-timeout storm parks only a small slice of a
// socket's 65535-ID space.
const idQuarantine = 3 * time.Second

// NewClientPool dials cfg.Sockets connected UDP sockets to each upstream
// (cfg.Servers, or the single server argument when Servers is empty) and
// starts their reader goroutines. The returned pool must be Closed.
func NewClientPool(server string, cfg ClientPoolConfig) (*ClientPool, error) {
	cfg = cfg.withDefaults()
	servers := cfg.Servers
	if len(servers) == 0 {
		servers = []string{server}
	}
	p := &ClientPool{cfg: cfg, done: make(chan struct{}), met: newPoolMetrics(cfg.Metrics)}
	for _, addr := range servers {
		raddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dnsserver: %w", err)
		}
		up := &upstream{
			addr:    addr,
			srttG:   p.met.srtt.With(addr),
			rttvarG: p.met.rttvar.With(addr),
			rttT:    p.met.rtt.With(addr),
		}
		if cfg.Breaker != nil {
			trans := p.met.transitions
			a := addr
			up.brk = newBreaker(*cfg.Breaker, func(to breakerState) {
				trans.With(a, to.String()).Inc()
			})
		}
		for i := 0; i < cfg.Sockets; i++ {
			conn, err := net.DialUDP("udp", nil, raddr)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("dnsserver: %w", err)
			}
			// Thousands of responses can land between reader wakeups; a deep
			// kernel buffer is what keeps burst loss off the retry ladder.
			// Best-effort: the OS caps it silently.
			_ = conn.SetReadBuffer(4 << 20)
			s := &poolSock{conn: conn, pending: make(map[uint16]*poolCall)}
			up.socks = append(up.socks, s)
			p.wg.Add(1)
			go p.readLoop(s)
		}
		p.ups = append(p.ups, up)
	}
	return p, nil
}

// readLoop demuxes one socket's responses to their waiting calls. It
// exits when the socket is closed; undecodable datagrams and responses
// for IDs nobody is waiting on (late retransmission answers) are
// dropped, as the one-shot Client does.
func (p *ClientPool) readLoop(s *poolSock) {
	defer p.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return // socket closed by Close
		}
		msg, err := dnswire.Decode(buf[:n])
		if err != nil || !msg.Header.Response {
			continue
		}
		s.mu.Lock()
		call := s.pending[msg.Header.ID]
		delete(s.pending, msg.Header.ID)
		s.mu.Unlock()
		if call != nil {
			call.ch <- msg // cap 1, written once per registration
		}
	}
}

// register allocates an unused message ID on s and parks a call under
// it. IDs are drawn from a wrapping counter, skipping slots that are
// taken by live waiters or still quarantined, so concurrent queries on
// one socket never collide and a late response never reaches a reused
// ID's new waiter. Expired quarantine entries are reclaimed as the
// counter walks past them; the reclaimed call itself serves the new
// query, since no response reached it (delivery removes a call).
func (s *poolSock) register() (uint16, *poolCall, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) >= 1<<16-1 {
		return 0, nil, ErrPoolBusy
	}
	now := time.Now().UnixNano()
	for {
		s.nextID++
		c, taken := s.pending[s.nextID]
		if !taken {
			break
		}
		if c.abandoned != 0 && now-c.abandoned > int64(idQuarantine) {
			c.abandoned = 0 // quarantine over; reuse this slot
			return s.nextID, c, nil
		}
	}
	call := callPool.Get().(*poolCall)
	s.pending[s.nextID] = call
	return s.nextID, call, nil
}

// unregister removes a call whose query never made it onto the wire
// (encode or send failure) — no response can arrive, so the ID is
// immediately reusable. It returns the call it removed, the caller's
// own unless a stray late response for the ID reached that one first
// (the reader removes a call as it delivers).
func (s *poolSock) unregister(id uint16) *poolCall {
	s.mu.Lock()
	c := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	return c
}

// forget unregisters call, which never made it onto the wire, and
// recycles it if it was still waiting under id.
func (s *poolSock) forget(id uint16, call *poolCall) {
	if s.unregister(id) == call {
		callPool.Put(call)
	}
}

// abandon marks a call whose waiter gave up after the query was sent.
// The entry stays in the pending table, quarantining its ID (see
// poolCall.abandoned); the reader still deletes it if the late response
// arrives, ending the quarantine early.
func (s *poolSock) abandon(id uint16) {
	s.mu.Lock()
	if c, ok := s.pending[id]; ok {
		c.abandoned = time.Now().UnixNano()
	}
	s.mu.Unlock()
}

// InFlight returns the number of Query calls currently outstanding — the
// pool's in-flight gauge.
func (p *ClientPool) InFlight() int64 { return p.inflight.Load() }

// pick returns the upstream for one attempt: candidates rotate from the
// query's base offset plus the attempt number (so each retry prefers
// the NEXT upstream — failover — and different queries spread across
// upstreams), skipping any whose breaker rejects. nil means every
// breaker is open.
func (p *ClientPool) pick(base uint64, attempt int) (*upstream, bool) {
	n := uint64(len(p.ups))
	now := time.Now()
	for i := uint64(0); i < n; i++ {
		up := p.ups[(base+uint64(attempt)+i)%n]
		if ok, probe := up.allow(now); ok {
			return up, probe
		}
	}
	return nil, false
}

// waitAdmit polls for a breaker admission for up to budget, returning
// nil when the budget, the context, or the pool expires first. Polling
// (rather than a notification scheme) keeps the breaker simple; the
// 2 ms cadence costs nothing next to a retry ladder measured in tens of
// milliseconds.
func (p *ClientPool) waitAdmit(ctx context.Context, base uint64, attempt int, budget time.Duration) (*upstream, bool) {
	deadline := time.Now().Add(budget)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if up, probe := p.pick(base, attempt); up != nil {
				return up, probe
			}
			if time.Now().After(deadline) {
				return nil, false
			}
		case <-ctx.Done():
			return nil, false
		case <-p.done:
			return nil, false
		}
	}
}

// pickHedge returns the upstream for a hedged request: the next healthy
// upstream that is not the primary (the same upstream — via a different
// socket — only when it is the sole one configured).
func (p *ClientPool) pickHedge(primary *upstream) (*upstream, bool) {
	n := len(p.ups)
	now := time.Now()
	base := p.next.Add(1)
	var fallback *upstream
	var fallbackProbe bool
	for i := 0; i < n; i++ {
		up := p.ups[(base+uint64(i))%uint64(n)]
		ok, probe := up.allow(now)
		if !ok {
			continue
		}
		if up != primary {
			if fallback != nil {
				// The fallback admission we banked is not being used.
				fallback.release(fallbackProbe)
			}
			return up, probe
		}
		fallback, fallbackProbe = up, probe
	}
	return fallback, fallbackProbe
}

// timeoutFor computes the per-attempt timeout: the fixed ladder, or, in
// adaptive mode with at least one sample for the chosen upstream, the
// RFC 6298 RTO backed off per attempt.
func (p *ClientPool) timeoutFor(up *upstream, attempt int) time.Duration {
	if p.cfg.Adaptive {
		if rto, ok := up.est.rto(); ok {
			return p.cfg.adaptiveTimeout(rto, attempt)
		}
	}
	return p.cfg.attemptTimeout(attempt)
}

// hedgeDelay is how long the first attempt waits before sending a
// hedged duplicate: the configured HedgeAfter, the estimator's
// SRTT + 2·RTTVAR, or half the attempt timeout before any sample.
func (p *ClientPool) hedgeDelay(up *upstream, timeout time.Duration) time.Duration {
	if p.cfg.HedgeAfter > 0 {
		return p.cfg.HedgeAfter
	}
	if srtt, rttvar, ok := up.est.current(); ok {
		return srtt + 2*rttvar
	}
	return timeout / 2
}

// Query resolves one question through the pool: it encodes the query
// under a socket-local ID, sends it to the chosen upstream, and waits
// for the demuxed response, walking the retry ladder (rotating sockets
// and upstreams) per the pool config. Timeouts follow the Client
// contract: silence for the full ladder yields ErrTimeout; a response
// answering a different question yields ErrMismatch; every upstream
// staying circuit-open through the ladder's waiting budget yields
// ErrCircuitOpen. Cancelling ctx abandons the query with ctx's error.
func (p *ClientPool) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)

	base := p.next.Add(1)
	var lastErr error = ErrTimeout
	var prev *upstream
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		up, probe := p.pick(base, attempt)
		if up == nil {
			// Every breaker is open. Failing fast here would let a scan's
			// worth of workers drain the feed as errors during one OpenFor
			// window; there is no alternative path to shed load onto, so
			// waiting is strictly better. Block (up to this attempt's fixed
			// ladder budget) for a half-open slot; a successful probe then
			// reopens the floodgates for everyone.
			up, probe = p.waitAdmit(ctx, base, attempt, p.cfg.attemptTimeout(attempt))
			if up == nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if p.closed.Load() {
					return nil, ErrPoolClosed
				}
				p.met.circuitOpen.Inc()
				lastErr = ErrCircuitOpen
				continue
			}
		}
		if prev != nil && up != prev {
			p.met.failovers.Inc()
		}
		prev = up
		timeout := p.timeoutFor(up, attempt)
		msg, err, terminal := p.attempt(ctx, up, probe, name, qtype, timeout, attempt == 0)
		if err == nil {
			return msg, nil
		}
		if terminal {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// attempt performs one wire exchange against up, hedging to a second
// upstream when enabled and the hedge delay fits inside the attempt
// timeout. terminal reports whether the error ends the ladder (busy,
// mismatch, cancellation, pool close) rather than feeding the next
// retry.
func (p *ClientPool) attempt(ctx context.Context, up *upstream, probe bool, name string, qtype dnswire.Type, timeout time.Duration, first bool) (m *dnswire.Message, err error, terminal bool) {
	s := up.sock()
	id, call, err := s.register()
	if err != nil {
		up.release(probe)
		p.met.busy.Inc()
		return nil, err, true
	}
	sc := scratchPool.Get().(*attemptScratch)
	defer sc.release()
	if sc.wire, err = dnswire.AppendQuery(sc.wire[:0], id, name, qtype); err != nil {
		s.forget(id, call)
		up.release(probe)
		return nil, err, true
	}
	sent := time.Now()
	if _, err := s.conn.Write(sc.wire); err != nil {
		s.forget(id, call)
		if p.closed.Load() {
			return nil, ErrPoolClosed, true
		}
		up.fail(probe)
		return nil, err, false
	}
	p.met.attempts.Inc()

	timerC := sc.timer.start(timeout)

	// Hedge state: armed lazily when the hedge delay fires. A nil hedge
	// channel never receives, so the select below is uniform.
	var (
		hup    *upstream
		hprobe bool
		hsock  *poolSock
		hid    uint16
		hcall  *poolCall
		hsent  time.Time
		hedgeC <-chan time.Time
	)
	if p.cfg.Hedge && first {
		if d := p.hedgeDelay(up, timeout); d > 0 && d < timeout {
			hedgeC = sc.hedge.start(d)
		}
	}
	hch := func() chan *dnswire.Message {
		if hcall != nil {
			return hcall.ch
		}
		return nil
	}
	abandonIDs := func() {
		s.abandon(id)
		if hcall != nil {
			hsock.abandon(hid)
		}
	}
	// Abandoning without an outcome still resolves both breaker
	// admissions: a leaked half-open probe slot would otherwise pin the
	// breaker half-open with no escape.
	releaseAll := func() {
		up.release(probe)
		if hcall != nil {
			hup.release(hprobe)
		}
	}

	for {
		select {
		case msg := <-call.ch:
			callPool.Put(call)
			if hcall != nil {
				// The hedge lost the race: quarantine its ID and return its
				// probe slot without judging the upstream.
				hsock.abandon(hid)
				hup.release(hprobe)
			}
			return p.deliver(up, probe, msg, name, time.Since(sent))
		case msg := <-hch():
			callPool.Put(hcall)
			s.abandon(id)
			up.release(probe)
			p.met.hedgeWins.Inc()
			return p.deliver(hup, hprobe, msg, name, time.Since(hsent))
		case <-hedgeC:
			sc.hedge.fired = true
			hedgeC = nil
			h, hp := p.pickHedge(up)
			if h == nil {
				continue // nowhere healthy to hedge to
			}
			hs := h.sock()
			nid, ncall, err := hs.register()
			if err != nil {
				h.release(hp)
				continue // ID space tight: skip the hedge, keep waiting
			}
			if sc.wire, err = dnswire.AppendQuery(sc.wire[:0], nid, name, qtype); err != nil {
				hs.forget(nid, ncall)
				h.release(hp)
				continue
			}
			hsent = time.Now()
			if _, err := hs.conn.Write(sc.wire); err != nil {
				hs.forget(nid, ncall)
				h.fail(hp)
				continue
			}
			hup, hprobe, hsock, hid, hcall = h, hp, hs, nid, ncall
			p.met.attempts.Inc()
			p.met.hedges.Inc()
		case <-timerC:
			sc.timer.fired = true
			// The query is on the wire; quarantine the ID(s) rather than
			// freeing them so a late response can't be demuxed to whoever
			// registers the ID next.
			abandonIDs()
			up.fail(probe)
			if hcall != nil {
				hup.fail(hprobe)
			}
			p.met.timeouts.Inc()
			return nil, ErrTimeout, false
		case <-ctx.Done():
			abandonIDs()
			releaseAll()
			return nil, ctx.Err(), true
		case <-p.done:
			abandonIDs()
			releaseAll()
			return nil, ErrPoolClosed, true
		}
	}
}

// deliver validates a matched response, feeds the upstream's estimator
// and breaker, and hands the message back. A response answering a
// different question is ErrMismatch and ends the ladder (the server is
// alive — retrying would get the same answer).
func (p *ClientPool) deliver(up *upstream, probe bool, msg *dnswire.Message, name string, rtt time.Duration) (*dnswire.Message, error, bool) {
	up.observeRTT(rtt)
	up.ok(probe)
	if len(msg.Questions) == 0 ||
		dnswire.CanonicalName(msg.Questions[0].Name) != dnswire.CanonicalName(name) {
		return nil, ErrMismatch, true
	}
	return msg, nil, true
}

// Upstreams returns the configured upstream addresses in rotation order.
func (p *ClientPool) Upstreams() []string {
	addrs := make([]string, len(p.ups))
	for i, up := range p.ups {
		addrs[i] = up.addr
	}
	return addrs
}

// Close releases the pool's sockets, stops the reader goroutines, and
// fails queries still waiting with ErrPoolClosed. Safe to call multiple
// times.
func (p *ClientPool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.done)
	var first error
	for _, up := range p.ups {
		for _, s := range up.socks {
			if err := s.conn.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	p.wg.Wait()
	return first
}
