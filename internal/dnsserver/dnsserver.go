// Package dnsserver runs the dnswire codec over real UDP sockets: a
// minimal authoritative server that can serve a zonedb namespace on
// localhost, and a stub client with retry/timeout handling. It exists to
// prove the wire codec end to end over an actual network stack (not just
// in-memory buffers) and to let examples and tools resolve against the
// synthetic namespace with standard DNS tooling semantics.
//
// The server degrades gracefully rather than dying: queries flow
// through a bounded queue into a worker pool, handler panics are
// recovered into SERVFAIL responses, per-client token buckets answer
// REFUSED under abuse, a full queue sheds load, and Shutdown drains
// in-flight queries before closing the socket. Every degradation path
// is counted through the obs registry.
package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/zonedb"
)

// Handler produces a response message for one query. Implementations
// must not retain msg.
type Handler interface {
	Handle(msg *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*dnswire.Message) *dnswire.Message

// Handle calls f.
func (f HandlerFunc) Handle(m *dnswire.Message) *dnswire.Message { return f(m) }

// Config parameterizes the server's hardening. The zero value gets
// sensible defaults: 4 workers, a 256-deep queue, no rate limiting.
type Config struct {
	// Workers is the size of the handler pool (default 4).
	Workers int
	// QueueDepth bounds the pending-query queue; datagrams arriving
	// with the queue full are shed (default 256).
	QueueDepth int
	// RateLimit, when non-nil, enables per-client token-bucket rate
	// limiting: over-limit queries are answered REFUSED.
	RateLimit *RateLimitConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// packet is one received datagram awaiting a worker. data comes from
// the server's datagram pool unless it is longer than maxPooledDatagram.
type packet struct {
	data []byte
	peer netip.AddrPort
}

// maxPooledDatagram sizes the pooled datagram buffers. A plain query — a
// header, a name of a few dozen bytes, its type and class — fits, as
// does one padded to a 128-byte block (RFC 8467). A queued datagram
// holds its buffer until a worker is done with it, so under load up to
// the queue's depth times this size stays live; a longer datagram gets
// a buffer of its own.
const maxPooledDatagram = 128

// Server is a UDP DNS server with a bounded worker pool.
type Server struct {
	handler Handler
	cfg     Config
	limiter *rateLimiter
	// zones is the zone handler's namespace, answered on the fast path
	// (answerPlain); nil for any other handler.
	zones *zonedb.DB
	// datagrams pools *[maxPooledDatagram]byte buffers for the queue.
	datagrams sync.Pool

	mu       sync.Mutex
	conn     *net.UDPConn
	closed   bool // Close called: stop everything
	draining bool // Shutdown called: stop reading, finish the queue
	queue    chan packet

	readerWG sync.WaitGroup
	workerWG sync.WaitGroup

	// TCP listener state (see tcp.go); nil/empty unless StartTCP ran.
	tcpLn    net.Listener
	tcpConns map[net.Conn]struct{}
	tcpWG    sync.WaitGroup

	// closeOnce makes socket teardown idempotent: Close and Shutdown
	// (or two Closes) race safely and agree on the returned error.
	closeOnce sync.Once
	closeErr  error

	// reg backs the per-RCode response counts and degradation tallies;
	// metrics fans activity into it.
	reg     *obs.Registry
	metrics srvMetrics
}

// NewServer returns a server that answers with h, counting into a
// private registry.
func NewServer(h Handler) *Server {
	return NewServerObserved(h, nil)
}

// NewServerObserved returns a server that answers with h and records its
// activity in reg. A nil reg falls back to a private registry — the
// counters always exist, because Queries() is derived from them.
func NewServerObserved(h Handler, reg *obs.Registry) *Server {
	return NewServerWith(h, Config{}, reg)
}

// NewServerWith returns a server with explicit hardening configuration.
// A nil reg falls back to a private registry.
func NewServerWith(h Handler, cfg Config, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{handler: h, cfg: cfg.withDefaults(), reg: reg, metrics: newSrvMetrics(reg)}
	if zh, ok := h.(zoneHandler); ok {
		s.zones = zh.zones
	}
	s.datagrams.New = func() any { return new([maxPooledDatagram]byte) }
	if cfg.RateLimit != nil {
		s.limiter = newRateLimiter(*cfg.RateLimit)
	}
	return s
}

// Metrics returns the registry the server counts into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Start binds addr (e.g. "127.0.0.1:0") and serves until Close or
// Shutdown. It returns the bound address, useful with port 0.
func (s *Server) Start(addr string) (*net.UDPAddr, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	// Bulk clients (cmd/dnsscan) burst tens of thousands of queries;
	// a deep kernel buffer absorbs what the reader loop hasn't drained
	// yet, so overload surfaces as a counted queue shed rather than a
	// silent kernel drop. Best-effort: the OS caps it silently.
	_ = conn.SetReadBuffer(4 << 20)
	s.mu.Lock()
	s.conn = conn
	s.queue = make(chan packet, s.cfg.QueueDepth)
	s.mu.Unlock()

	s.readerWG.Add(1)
	go s.read(conn)
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(conn)
	}
	return conn.LocalAddr().(*net.UDPAddr), nil
}

// read is the socket loop: it only reads, copies, and enqueues, so one
// slow handler can never stall ingestion — a full queue sheds instead.
// Closing the queue when the loop exits is what lets workers drain and
// then stop.
func (s *Server) read(conn *net.UDPConn) {
	defer s.readerWG.Done()
	defer close(s.queue)
	buf := make([]byte, 4096)
	for {
		n, peer, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			s.mu.Lock()
			stop := s.closed || s.draining
			s.mu.Unlock()
			if stop {
				return
			}
			continue
		}
		s.metrics.received.Inc()
		data := s.datagram(n)
		copy(data, buf[:n])
		select {
		case s.queue <- packet{data: data, peer: peer}:
		default:
			s.metrics.shed.Inc() // overload: drop rather than block the socket
			s.recycle(data)
		}
	}
}

// datagram returns a buffer of length n, pooled when n fits one.
func (s *Server) datagram(n int) []byte {
	if n > maxPooledDatagram {
		return make([]byte, n)
	}
	return s.datagrams.Get().(*[maxPooledDatagram]byte)[:n]
}

// recycle returns a buffer from datagram to the pool.
func (s *Server) recycle(data []byte) {
	if cap(data) == maxPooledDatagram {
		s.datagrams.Put((*[maxPooledDatagram]byte)(data[:maxPooledDatagram]))
	}
}

// workerScratch is what one worker reuses across datagrams: the response
// it writes and, on the fast path, the question name it looks up.
type workerScratch struct {
	out, name []byte
}

func (s *Server) worker(conn *net.UDPConn) {
	defer s.workerWG.Done()
	w := &workerScratch{out: make([]byte, 0, maxPooledDatagram)}
	for pkt := range s.queue {
		s.handlePacket(conn, pkt, w)
		s.recycle(pkt.data)
	}
}

func (s *Server) handlePacket(conn *net.UDPConn, pkt packet, w *workerScratch) {
	if s.zones != nil {
		if q, ok := dnswire.ParseQuery(pkt.data); ok && s.answerPlain(conn, &q, pkt.peer, w) {
			return
		}
	}
	msg, err := dnswire.Decode(pkt.data)
	if err != nil {
		s.metrics.decodeErrs.Inc()
		return // drop garbage, as real servers do
	}
	if msg.Header.Response || len(msg.Questions) == 0 {
		s.metrics.dropped.Inc()
		return
	}
	if s.limiter != nil && !s.limiter.allow(pkt.peer.Addr(), time.Now()) {
		s.metrics.refused.Inc()
		s.respond(conn, dnswire.NewResponse(msg, dnswire.RCodeRefused), pkt.peer, w)
		return
	}
	resp := s.invoke(msg)
	if resp == nil {
		resp = dnswire.NewResponse(msg, dnswire.RCodeServFail)
	}
	s.respond(conn, resp, pkt.peer, w)
}

// answerPlain answers a plain query (dnswire.ParseQuery) for the zone
// handler without building a Message: it sends the bytes the general
// path — Decode, the rate limiter, ZoneHandler, Encode — would send, and
// counts what that path counts. It reports false, having done nothing,
// where that path's Encode would fail, so the caller takes that path.
// The limiter is consulted only once the answer is known to encode, as
// the general path consults it only for decodable queries; the zone
// lookup before it has no side effects.
func (s *Server) answerPlain(conn *net.UDPConn, q *dnswire.QueryView, peer netip.AddrPort, w *workerScratch) bool {
	rcode, ok := w.answerZone(s.zones, q)
	if !ok {
		return false
	}
	if s.limiter != nil && !s.limiter.allow(peer.Addr(), time.Now()) {
		s.metrics.refused.Inc()
		rcode = dnswire.RCodeRefused
		w.out, _ = q.AppendResponse(w.out[:0], rcode, false, nil, 0)
	}
	s.metrics.response(rcode).Inc()
	_, _ = conn.WriteToUDPAddrPort(w.out, peer)
	return true
}

// answerZone writes ZoneHandler's response to the plain query q into
// w.out — the bytes Decode, ZoneHandler and Encode give for it — and
// returns its RCode. It reports false, leaving w.out as it was, where
// that Encode fails.
func (w *workerScratch) answerZone(zones *zonedb.DB, q *dnswire.QueryView) (dnswire.RCode, bool) {
	w.name = q.AppendName(w.name[:0])
	rcode, addrs, ttl := zoneAnswer(q.Opcode, zones.LookupBytes(w.name), q.Type)
	out, ok := q.AppendResponse(w.out[:0], rcode, rcode == dnswire.RCodeNoError, addrs, ttl)
	if ok {
		w.out = out
	}
	return rcode, ok
}

// invoke runs the handler with panic recovery: a panicking handler
// costs that query a SERVFAIL, never the server.
func (s *Server) invoke(msg *dnswire.Message) (resp *dnswire.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			resp = dnswire.NewResponse(msg, dnswire.RCodeServFail)
		}
	}()
	return s.handler.Handle(msg)
}

func (s *Server) respond(conn *net.UDPConn, resp *dnswire.Message, peer netip.AddrPort, w *workerScratch) {
	out, err := resp.AppendEncode(w.out[:0])
	if err != nil {
		s.metrics.encodeErrs.Inc()
		return
	}
	w.out = out
	s.metrics.response(resp.Header.RCode).Inc()
	_, _ = conn.WriteToUDPAddrPort(out, peer)
}

// Queries returns the number of datagrams received so far.
func (s *Server) Queries() uint64 { return s.metrics.received.Value() }

// Responses returns the number of responses sent with the given RCode.
func (s *Server) Responses(rc dnswire.RCode) uint64 {
	return s.metrics.response(rc).Value()
}

// DecodeErrors returns the number of undecodable datagrams received.
func (s *Server) DecodeErrors() uint64 { return s.metrics.decodeErrs.Value() }

// Panics returns the number of handler panics recovered.
func (s *Server) Panics() uint64 { return s.metrics.panics.Value() }

// Refused returns the number of queries rate-limited to REFUSED.
func (s *Server) Refused() uint64 { return s.metrics.refused.Value() }

// Shed returns the number of datagrams dropped on a full queue.
func (s *Server) Shed() uint64 { return s.metrics.shed.Value() }

// Shutdown gracefully stops the server: it stops reading new
// datagrams, drains queries already queued, then closes the socket. If
// ctx expires first the socket is closed immediately and ctx's error
// returned; queued work may be abandoned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	conn := s.conn
	s.mu.Unlock()
	s.closeTCP()
	if conn == nil {
		return nil
	}
	// Unblock the reader; with draining set, its next read error exits
	// the loop, which closes the queue, which lets workers drain out.
	_ = conn.SetReadDeadline(time.Now())

	done := make(chan struct{})
	go func() {
		s.readerWG.Wait()
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.closeConn()
	case <-ctx.Done():
		_ = s.closeConn()
		return ctx.Err()
	}
}

// Close stops the server immediately and waits for the reader and
// workers to exit. Safe to call multiple times and concurrently with
// Shutdown; repeated calls return the first close's error.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	s.closeTCP()
	if conn == nil {
		return nil
	}
	err := s.closeConn()
	s.readerWG.Wait()
	s.workerWG.Wait()
	return err
}

// closeConn closes the socket exactly once, remembering the error.
func (s *Server) closeConn() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn != nil {
			s.closeErr = conn.Close()
		}
	})
	return s.closeErr
}

// ZoneHandler serves A queries from a zonedb namespace, answering
// NXDOMAIN for unknown names and NOTIMP for unsupported opcodes. AAAA
// queries for known names return empty NOERROR (the namespace is
// v4-only), matching the generator's dual-stack behavior. A UDP server
// answers plain queries for it on a fast path that writes the same
// bytes (Server.answerPlain).
func ZoneHandler(zones *zonedb.DB) Handler {
	return zoneHandler{zones: zones}
}

type zoneHandler struct {
	zones *zonedb.DB
}

func (h zoneHandler) Handle(q *dnswire.Message) *dnswire.Message {
	question := q.Questions[0]
	rcode, addrs, ttl := zoneAnswer(q.Header.Opcode, h.zones.Lookup(dnswire.CanonicalName(question.Name)), question.Type)
	resp := dnswire.NewResponse(q, rcode)
	resp.Header.Authoritative = rcode == dnswire.RCodeNoError
	for _, addr := range addrs {
		resp.AddAnswerA(question.Name, addr, ttl)
	}
	return resp
}

// zoneAnswer is ZoneHandler's answer to a question for name (nil when
// the namespace lacks it): its RCode (authoritative when NOERROR), and
// the addresses to answer with their TTL.
func zoneAnswer(op dnswire.Opcode, name *zonedb.Name, t dnswire.Type) (dnswire.RCode, []netip.Addr, uint32) {
	switch {
	case op != dnswire.OpcodeQuery:
		return dnswire.RCodeNotImp, nil, 0
	case name == nil:
		return dnswire.RCodeNXDomain, nil, 0
	case t == dnswire.TypeA || t == dnswire.TypeANY:
		return dnswire.RCodeNoError, name.Addrs, uint32(name.TTL / time.Second)
	}
	return dnswire.RCodeNoError, nil, 0
}

// Client is a stub resolver speaking plain UDP DNS.
type Client struct {
	// Server is the resolver address ("127.0.0.1:5353").
	Server string
	// Timeout bounds each attempt (default 2 s).
	Timeout time.Duration
	// Retries is the number of additional attempts (default 2).
	Retries int

	mu     sync.Mutex
	nextID uint16
}

// Errors returned by Query.
var (
	ErrTimeout  = errors.New("dnsserver: query timed out")
	ErrMismatch = errors.New("dnsserver: response does not match query")
)

// Query sends one question and returns the decoded response. Responses
// with mismatched IDs are ignored (off-path spoofing hygiene); timeouts
// are retried.
func (c *Client) Query(name string, qtype dnswire.Type) (*dnswire.Message, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}

	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	q := dnswire.NewQuery(id, name, qtype)
	wire, err := q.Encode()
	if err != nil {
		return nil, err
	}

	var lastErr error = ErrTimeout
	for i := 0; i < attempts; i++ {
		resp, err := c.attempt(wire, id, name, timeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (c *Client) attempt(wire []byte, id uint16, name string, timeout time.Duration) (*dnswire.Message, error) {
	conn, err := net.Dial("udp", c.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		msg, err := dnswire.Decode(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting
		}
		if msg.Header.ID != id || !msg.Header.Response {
			continue // not ours
		}
		if len(msg.Questions) == 0 ||
			dnswire.CanonicalName(msg.Questions[0].Name) != dnswire.CanonicalName(name) {
			return nil, ErrMismatch
		}
		return msg, nil
	}
}
