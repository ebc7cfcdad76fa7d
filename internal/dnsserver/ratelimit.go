package dnsserver

import (
	"net/netip"
	"sync"
	"time"
)

// RateLimitConfig parameterizes the per-client token bucket. Each
// client IP gets Burst tokens refilled at PerSecond; a query arriving
// with no token available is answered REFUSED rather than dropped, so
// well-behaved stubs back off instead of retrying blind.
type RateLimitConfig struct {
	// PerSecond is the sustained per-client query rate.
	PerSecond float64
	// Burst is the bucket depth (minimum 1).
	Burst int
	// MaxClients bounds the bucket table. When the table is full, it is
	// reset wholesale — crude, but it bounds memory under address-spoofed
	// floods and only ever errs toward allowing traffic. Zero means the
	// default (4096).
	MaxClients int
}

const defaultMaxClients = 4096

// rateLimiter is a per-client-IP token bucket table.
type rateLimiter struct {
	cfg RateLimitConfig

	mu      sync.Mutex
	buckets map[netip.Addr]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(cfg RateLimitConfig) *rateLimiter {
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = defaultMaxClients
	}
	return &rateLimiter{cfg: cfg, buckets: make(map[netip.Addr]*bucket)}
}

// allow reports whether a query from ip may be served now, consuming a
// token if so. An IPv4 address and its IPv4-mapped IPv6 form share a
// bucket; a zone does not make a client of its own.
func (rl *rateLimiter) allow(ip netip.Addr, now time.Time) bool {
	key := netip.AddrFrom16(ip.As16())
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[key]
	if !ok {
		if len(rl.buckets) >= rl.cfg.MaxClients {
			rl.buckets = make(map[netip.Addr]*bucket)
		}
		b = &bucket{tokens: float64(rl.cfg.Burst), last: now}
		rl.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * rl.cfg.PerSecond
		if max := float64(rl.cfg.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
