package dnsserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"time"

	"dnscontext/internal/dnswire"
)

// DNS-over-TCP (RFC 7766): the same handler, limiter, and metrics as the
// UDP path, behind a length-prefixed stream. Connections are persistent —
// a client may send many queries on one connection; the server answers
// each in order and closes only on client close, read error, or server
// teardown.

// StartTCP binds addr as a TCP listener and serves length-prefixed DNS
// until Close or Shutdown. It can run alongside Start on the same
// Server; both share the handler, rate limiter, and counters. Returns
// the bound address (useful with port 0).
func (s *Server) StartTCP(addr string) (*net.TCPAddr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	s.mu.Lock()
	s.tcpLn = ln
	if s.tcpConns == nil {
		s.tcpConns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()

	s.tcpWG.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().(*net.TCPAddr), nil
}

// acceptLoop hands each accepted connection its own goroutine; the
// per-connection read loop is sequential (RFC 7766 allows pipelining,
// but in-order handling keeps responses matched to queries without an
// ID-tracking layer).
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.tcpWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by teardown
		}
		s.mu.Lock()
		stop := s.closed || s.draining
		if !stop {
			s.tcpConns[conn] = struct{}{}
		}
		s.mu.Unlock()
		if stop {
			conn.Close()
			return
		}
		s.tcpWG.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.tcpWG.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.tcpConns, conn)
		s.mu.Unlock()
	}()
	var clientIP netip.Addr
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		clientIP = ta.AddrPort().Addr()
	}
	for {
		frame, err := dnswire.ReadTCPFrame(conn)
		if err != nil {
			return // client closed (or a broken stream); either way, done
		}
		s.metrics.received.Inc()
		msg, err := dnswire.Decode(frame)
		if err != nil {
			s.metrics.decodeErrs.Inc()
			return // a desynchronized stream cannot recover; drop it
		}
		if msg.Header.Response || len(msg.Questions) == 0 {
			s.metrics.dropped.Inc()
			continue
		}
		var resp *dnswire.Message
		if s.limiter != nil && clientIP.IsValid() && !s.limiter.allow(clientIP, time.Now()) {
			s.metrics.refused.Inc()
			resp = dnswire.NewResponse(msg, dnswire.RCodeRefused)
		} else {
			resp = s.invoke(msg)
			if resp == nil {
				resp = dnswire.NewResponse(msg, dnswire.RCodeServFail)
			}
		}
		out, err := resp.Encode()
		if err != nil {
			s.metrics.encodeErrs.Inc()
			continue
		}
		s.metrics.response(resp.Header.RCode).Inc()
		if err := dnswire.WriteTCPFrame(conn, out); err != nil {
			return
		}
	}
}

// closeTCP tears down the listener and every live connection; called
// from Close and Shutdown.
func (s *Server) closeTCP() {
	s.mu.Lock()
	ln := s.tcpLn
	conns := make([]net.Conn, 0, len(s.tcpConns))
	for c := range s.tcpConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.tcpWG.Wait()
}

// ErrReset is returned by a TCP-mode Client when the server (or the
// network) kills the connection mid-exchange — the stream analogue of a
// datagram timeout, and the failure the resolver model counts separately
// (see resolver.Recursive.LossCounters).
var ErrReset = errors.New("dnsserver: connection reset mid-exchange")

// QueryTCP sends one question over a fresh TCP connection using RFC 7766
// length-prefixed framing and returns the decoded response. Unlike the
// UDP path, failures are distinguishable, and the retry contract differs
// by failure class:
//
//   - Timeout (ErrTimeout): the server stayed silent — the dial, write,
//     or read deadline expired with the connection otherwise healthy.
//     Indistinguishable from datagram loss, so QueryTCP retries it like
//     the UDP path does, up to Retries additional attempts, each over a
//     fresh connection with a fresh deadline.
//   - Reset (ErrReset): the peer (or the network) killed the connection
//     mid-exchange — EOF, unexpected EOF, or RST after the query was
//     written. The server demonstrably received something and chose to
//     drop the stream, so blind retransmission is wrong; QueryTCP
//     returns ErrReset immediately without consuming the remaining
//     attempts. The caller owns reconnect policy, mirroring the
//     simulated stream transports (resolver.Recursive.LossCounters
//     counts the two classes separately for the same reason).
//
// A response answering the wrong question yields ErrMismatch, also
// without retry. Each attempt opens its own connection; QueryTCP never
// reuses streams — callers needing connection reuse at scale should
// drive the UDP ClientPool or hold their own persistent conns.
func (c *Client) QueryTCP(name string, qtype dnswire.Type) (*dnswire.Message, error) {
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
		resp, err := c.attemptTCP(wire, id, name, timeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, ErrReset) {
			break
		}
	}
	return nil, lastErr
}

func (c *Client) attemptTCP(wire []byte, id uint16, name string, timeout time.Duration) (*dnswire.Message, error) {
	conn, err := net.DialTimeout("tcp", c.Server, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := dnswire.WriteTCPFrame(conn, wire); err != nil {
		return nil, classifyStreamErr(err)
	}
	for {
		frame, err := dnswire.ReadTCPFrame(conn)
		if err != nil {
			return nil, classifyStreamErr(err)
		}
		msg, err := dnswire.Decode(frame)
		if err != nil {
			continue // undecodable frame; keep reading until the deadline
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

// classifyStreamErr maps a TCP I/O failure to the client's error
// taxonomy: deadline expiry is a timeout (silence, like UDP loss), while
// EOF / unexpected-EOF / RST mean the peer killed the stream — a reset.
func classifyStreamErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrReset
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return ErrReset
	}
	return err
}
