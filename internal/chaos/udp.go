package chaos

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// NewUDP starts a UDP fault proxy forwarding to cfg.Upstream. Each
// client source address gets its own dialed upstream socket, so the
// upstream sees distinct peers exactly as it would without the proxy,
// and responses demux back to the right client.
func NewUDP(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	uaddr, err := net.ResolveUDPAddr("udp", cfg.Upstream)
	if err != nil {
		return nil, fmt.Errorf("chaos: upstream: %w", err)
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p := newProxy(cfg)
	p.pc = pc
	p.addr = pc.LocalAddr().String()
	// The client side funnels every session through this one socket; a
	// deep buffer keeps proxy-induced scheduling from adding loss the
	// profile didn't ask for.
	_ = pc.SetReadBuffer(4 << 20)
	_ = pc.SetWriteBuffer(4 << 20)
	p.wg.Add(1)
	go p.serveUDP(uaddr)
	return p, nil
}

// udpSession is one client peer's path through the proxy: a connected
// socket to the upstream plus the peer address responses return to.
type udpSession struct {
	conn *net.UDPConn
	peer netip.AddrPort
}

// serveUDP reads client datagrams off the listen socket, lazily creates
// a per-peer upstream session, and runs each datagram through the up
// lane's fault pipeline.
func (p *Proxy) serveUDP(uaddr *net.UDPAddr) {
	defer p.wg.Done()
	var mu sync.Mutex
	sessions := make(map[netip.AddrPort]*udpSession)
	buf := make([]byte, 65535)
	for {
		n, peer, err := p.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // listen socket closed by Close
		}
		mu.Lock()
		sess := sessions[peer]
		mu.Unlock()
		if sess == nil {
			conn, err := net.DialUDP("udp", nil, uaddr)
			if err != nil {
				continue // upstream unresolvable right now; drop, client retries
			}
			_ = conn.SetReadBuffer(4 << 20)
			if !p.track(conn) {
				return
			}
			sess = &udpSession{conn: conn, peer: peer}
			mu.Lock()
			sessions[peer] = sess
			mu.Unlock()
			p.wg.Add(1)
			go p.pumpUDPDown(sess)
		}
		f := p.up.decide(p.cfg.Profile, p.elapsed())
		p.deliverUDP(p.up, f, buf[:n], func(b []byte) {
			_, _ = sess.conn.Write(b)
		})
	}
}

// pumpUDPDown forwards one session's responses back to its client peer
// through the down lane's fault pipeline.
func (p *Proxy) pumpUDPDown(sess *udpSession) {
	defer p.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, err := sess.conn.Read(buf)
		if err != nil {
			return // session socket closed by Close
		}
		f := p.down.decide(p.cfg.Profile, p.elapsed())
		p.deliverUDP(p.down, f, buf[:n], func(b []byte) {
			_, _ = p.pc.WriteToUDPAddrPort(b, sess.peer)
		})
	}
}

// deliverUDP executes one datagram's fate: drop it, flip a byte,
// duplicate it, hold it back, and/or send it. pkt is only valid until
// deliverUDP returns (the read loop reuses it), so delayed and
// duplicate deliveries copy.
func (p *Proxy) deliverUDP(l *lane, f fate, pkt []byte, send func([]byte)) {
	if f.blackhole {
		p.cnt.blackholed.Add(1)
		l.dropBlack.Inc()
		return
	}
	if f.drop {
		p.cnt.dropped.Add(1)
		l.dropLoss.Inc()
		return
	}
	if f.corrupt {
		corruptByte(pkt, f.corruptAt)
		p.cnt.corrupted.Add(1)
		l.corrupted.Inc()
	}
	copies := 1
	if f.dup {
		copies = 2
		p.cnt.duplicated.Add(1)
		l.duplicated.Inc()
	}
	p.cnt.forwarded.Add(1)
	l.forwarded.Inc()
	if f.delay <= 0 {
		for i := 0; i < copies; i++ {
			send(pkt)
		}
		return
	}
	p.cnt.delayed.Add(1)
	l.delayed.Inc()
	if f.reorder {
		p.cnt.reordered.Add(1)
	}
	held := append([]byte(nil), pkt...)
	for i := 0; i < copies; i++ {
		time.AfterFunc(f.delay, func() {
			if !p.closed.Load() {
				send(held)
			}
		})
	}
}
