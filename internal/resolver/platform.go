package resolver

import (
	"net/netip"
	"time"

	"dnscontext/internal/netsim"
)

// PlatformID identifies one of the resolver platforms the paper compares
// (Table 1, §7).
type PlatformID uint8

// The four platforms observed in the CCZ dataset.
const (
	PlatformLocal PlatformID = iota
	PlatformGoogle
	PlatformOpenDNS
	PlatformCloudflare
	numPlatforms
)

// String returns the platform name used in the paper's tables.
func (p PlatformID) String() string {
	switch p {
	case PlatformLocal:
		return "Local"
	case PlatformGoogle:
		return "Google"
	case PlatformOpenDNS:
		return "OpenDNS"
	case PlatformCloudflare:
		return "CloudFlare"
	}
	return "Unknown"
}

// PlatformProfile parameterizes one resolver platform.
type PlatformProfile struct {
	ID    PlatformID
	Addrs []netip.Addr
	// Link models the client<->resolver path. Base is the one-way delay,
	// so the minimum lookup RTT is 2*Base — e.g. the local ISP resolvers
	// sit ~1 ms away for the paper's ~2 ms minimum lookups.
	Link netsim.Link
	// Partitions is the number of independent cache frontends a query may
	// land on. Anycast platforms with many isolated frontends (the paper
	// hypothesizes this explains Google's 23% hit rate) get large values.
	Partitions int
	// CacheCapacity bounds each partition's cache.
	CacheCapacity int
	// AuthLink adds the platform's own distance to authoritative servers
	// on cache misses (Google resolves from fewer, busier egress sites;
	// its R-lookups are slower in the body but tighter in the tail).
	AuthExtra netsim.Link
	// ExternalQPS models the query load each cache frontend receives from
	// the platform's OTHER clients (the rest of the ISP for the local
	// resolvers, the public Internet for the open platforms). The
	// simulation does not replay that traffic; instead, a missed name is
	// externally warm with probability 1 − exp(−ExternalQPS·share·TTL).
	ExternalQPS float64
	// Faults injects failures into the client<->resolver path: packet
	// loss, extra jitter, scheduled outage windows, and UDP truncation.
	// The zero value (the default profiles) is a pristine network and
	// reproduces pre-fault behavior bit for bit.
	Faults netsim.FaultProfile
	// Transport is how clients reach the platform. The zero value is
	// TransportUDP (the paper's Do53), which reproduces pre-transport
	// behavior bit for bit; TransportTCP/TLS/HTTPS switch the platform to
	// the corresponding stream transport.
	Transport TransportKind
	// Stream parameterizes the stream transports' cost model (idle
	// timeout, handshake RTTs, session resumption); zero-valued fields
	// take the calibrated defaults in StreamConfig.withDefaults. Ignored
	// for TransportUDP.
	Stream StreamConfig
}

// DefaultProfiles returns the calibrated platform set. RTTs follow the
// paper's observations: Local ≈2 ms, Cloudflare ≈9 ms (the "mode just
// under 10 msec"), Google and OpenDNS ≈20 ms.
func DefaultProfiles() []PlatformProfile {
	return []PlatformProfile{
		{
			ID:    PlatformLocal,
			Addrs: []netip.Addr{addr4(10, 0, 0, 2), addr4(10, 0, 0, 3)},
			Link: netsim.Link{Base: 1 * time.Millisecond, Jitter: 300 * time.Microsecond,
				SlowProb: 0.01, SlowFactor: 8},
			Partitions:    2,
			CacheCapacity: 400000,
			AuthExtra:     netsim.Link{},
			ExternalQPS:   35,
		},
		{
			ID:    PlatformGoogle,
			Addrs: []netip.Addr{addr4(8, 8, 8, 8), addr4(8, 8, 4, 4)},
			Link: netsim.Link{Base: 8500 * time.Microsecond, Jitter: 1200 * time.Microsecond,
				SlowProb: 0.01, SlowFactor: 5},
			Partitions:    64,
			CacheCapacity: 400000,
			// Slower in the body but a tight tail: moderate base, little
			// slow-episode mass.
			AuthExtra:   netsim.Link{Base: 18 * time.Millisecond, Jitter: 6 * time.Millisecond},
			ExternalQPS: 0.05,
		},
		{
			ID:    PlatformOpenDNS,
			Addrs: []netip.Addr{addr4(208, 67, 222, 222), addr4(208, 67, 220, 220)},
			Link: netsim.Link{Base: 8500 * time.Microsecond, Jitter: 1200 * time.Microsecond,
				SlowProb: 0.015, SlowFactor: 6},
			Partitions:    6,
			CacheCapacity: 400000,
			AuthExtra:     netsim.Link{Base: 2 * time.Millisecond, Jitter: 4 * time.Millisecond, SlowProb: 0.05, SlowFactor: 8},
			ExternalQPS:   0.9,
		},
		{
			ID:    PlatformCloudflare,
			Addrs: []netip.Addr{addr4(1, 1, 1, 1), addr4(1, 0, 0, 1)},
			Link: netsim.Link{Base: 4500 * time.Microsecond, Jitter: 800 * time.Microsecond,
				SlowProb: 0.01, SlowFactor: 6},
			Partitions:    1,
			CacheCapacity: 1000000,
			AuthExtra:     netsim.Link{Base: 1 * time.Millisecond, Jitter: 3 * time.Millisecond, SlowProb: 0.04, SlowFactor: 8},
			ExternalQPS:   120,
		},
	}
}

func addr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// PlatformOf maps a resolver address to its platform, or ok=false for
// unknown resolvers.
func PlatformOf(addr netip.Addr, profiles []PlatformProfile) (PlatformID, bool) {
	for _, p := range profiles {
		for _, a := range p.Addrs {
			if a == addr {
				return p.ID, true
			}
		}
	}
	return 0, false
}
